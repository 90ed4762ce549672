(* The three workloads and their deterministic op streams.

   A stream is a function of (workload, seed, connection, phase) only: the
   same four give the same sequence of ops, whatever the server does. The
   reference model decides what each response may be. *)

module Rng = Wip_util.Rng
module Distribution = Wip_workload.Distribution

type op =
  | Get of int  (** slot *)
  | Get_absent of int  (** the never-written key next to a slot *)
  | Put of int
  | Scan of int * int  (** low slot, length (also the limit) *)

type kind = Ingest | Point_hot | Range_cold

type t = {
  kind : kind;
  name : string;
  slots : int;  (** key slots; see {!Model} *)
  preloaded : int -> bool;
  rate : float;  (** open-loop offered load, ops/s, all connections together *)
}

(* Open-loop rates sit near half of each workload's closed-loop capacity on
   the 2-core reference machine (see README.md). *)
let ingest =
  {
    kind = Ingest;
    name = "ingest";
    slots = 400_000;
    preloaded = (fun s -> s mod 20 = 0);
    rate = 1_000.0;
  }

let point_hot =
  {
    kind = Point_hot;
    name = "point_hot";
    slots = 8_000;
    preloaded = (fun _ -> true);
    rate = 10_000.0;
  }

let range_cold =
  {
    kind = Range_cold;
    name = "range_cold";
    slots = 80_000;
    preloaded = (fun _ -> true);
    rate = 1_200.0;
  }

let all = [ ingest; point_hot; range_cold ]

let of_name n = List.find_opt (fun w -> w.name = n) all

(* Expected share of each op type in the stream: (get, put, scan). *)
let mix w =
  match w.kind with
  | Ingest -> (0.10, 0.90, 0.0)
  | Point_hot -> (0.95, 0.05, 0.0)
  | Range_cold -> (0.10, 0.10, 0.80)

(* A traced run repeats the closed loop with tracing on, as its own phase. *)
type phase = Closed | Closed_traced | Open | Probe

let phase_code = function
  | Closed -> 1
  | Closed_traced -> 2
  | Open -> 3
  | Probe -> 4

(* Each phase writes versions above every earlier phase's, so a writer's
   versions only grow across the run. *)
let version_base phase = (phase_code phase - 1) * 100_000_000

type gen = {
  w : t;
  conn : int;
  conns : int;
  rng : Rng.t;
  zipf : Distribution.t option;
  recent : int array;  (** ring of this connection's last put slots *)
  mutable puts : int;
}

let recent_len = 256

(* Reads of "recently acked" keys pick a put at least this many ops back,
   past the connection's in-flight window. *)
let recent_gap = 16

let stream_seed ~seed ~conn ~phase =
  Int64.(
    add (mul (of_int seed) 1_000_003L)
      (add (mul (of_int conn) 7919L) (of_int (phase_code phase))))

let gen w ~seed ~conn ~conns ~phase =
  let s = stream_seed ~seed ~conn ~phase in
  let zipf =
    match w.kind with
    | Point_hot ->
      Some
        (Distribution.make
           (Distribution.Zipfian { theta = 0.99; scrambled = true })
           ~space:(Int64.of_int w.slots) ~seed:(Int64.add s 17L))
    | Ingest | Range_cold -> None
  in
  { w; conn; conns; rng = Rng.create ~seed:s; zipf; recent = Array.make recent_len 0;
    puts = 0 }

(* A slot this connection owns, near [slot]. *)
let owned g slot =
  let s = slot - (slot mod g.conns) + g.conn in
  if s < g.w.slots then s else s - g.conns

let uniform g = Rng.int g.rng g.w.slots

let hot g =
  match g.zipf with
  | Some z -> Int64.to_int (Distribution.next z)
  | None -> uniform g

let put g slot =
  g.recent.(g.puts mod recent_len) <- slot;
  g.puts <- g.puts + 1;
  Put slot

(* A put issued between [recent_gap] and [recent_len] puts ago, or a
   preloaded slot before there is one. *)
let recent_get g =
  if g.puts <= recent_gap then Get (20 * Rng.int g.rng (g.w.slots / 20))
  else
    let span = min (g.puts - recent_gap) (recent_len - recent_gap) in
    let back = recent_gap + Rng.int g.rng span in
    Get g.recent.((g.puts - back) mod recent_len)

let next g =
  let r = Rng.float g.rng in
  match g.w.kind with
  | Ingest -> if r < 0.90 then put g (owned g (uniform g)) else recent_get g
  | Point_hot ->
    if r < 0.05 then put g (owned g (hot g))
    else if Rng.int g.rng 10 = 0 then Get_absent (hot g)
    else Get (hot g)
  | Range_cold ->
    if r < 0.80 then
      let len = 1 + Rng.int g.rng 100 in
      Scan (Rng.int g.rng (max 1 (g.w.slots - len)), len)
    else if r < 0.90 then Get (uniform g)
    else put g (owned g (uniform g))

let op_kind = function
  | Get _ | Get_absent _ -> `Get
  | Put _ -> `Put
  | Scan _ -> `Scan
