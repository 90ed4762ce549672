(* Load generation over the wire: one client connection per load thread,
   every response checked against the reference model.

   - Closed loop: each connection keeps [inflight] requests outstanding;
     completions inside the phase give capacity (ops/s).
   - Open loop: each connection sends on a fixed schedule of due times (a
     sender thread) while a receiver thread collects responses; latency is
     measured from the due time, so a late send counts against latency.

   A refused, failed or unanswered request counts as failed against
   attempted, and enters the open-loop latency samples as +infinity. *)

module Client = Wip_server.Client
module Protocol = Wip_server.Protocol

(* Growable float array. *)
module Floats = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.0; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0.0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let to_array t = Array.sub t.a 0 t.n

  let concat ts = Array.concat (List.map to_array ts)
end

type pending = {
  op : Workload.op;
  key : string;
  version : int;  (** puts: the version written *)
  floor : int;  (** gets: the key's acked version when the get was sent *)
  due : int;
  mutable sent : int;
  mutable send_ns : int;  (** time inside [Client.send] *)
}

type result = {
  mutable attempted : int;
  mutable completed : int;  (** answered without error inside the phase *)
  mutable failed : int;
  mutable mismatches : int;
  mutable first_mismatch : string list;
  lat : Floats.t array;
      (** open loop, per op index (get, put, scan): µs from due time,
          failures +inf *)
  due : Floats.t array;  (** the matching due times, ns *)
  svc_ns : int array;  (** get, put, scan: summed send-to-response ns *)
  svc_n : int array;
  late : Floats.t;  (** open loop: µs each send went out after its due time *)
  finish : Floats.t;  (** closed loop: completion times (ns) inside the phase *)
}

let make_result () =
  {
    attempted = 0;
    completed = 0;
    failed = 0;
    mismatches = 0;
    first_mismatch = [];
    lat = Array.init 3 (fun _ -> Floats.create ());
    due = Array.init 3 (fun _ -> Floats.create ());
    svc_ns = Array.make 3 0;
    svc_n = Array.make 3 0;
    late = Floats.create ();
    finish = Floats.create ();
  }

let merge rs =
  let r = make_result () in
  List.iter
    (fun x ->
      r.attempted <- r.attempted + x.attempted;
      r.completed <- r.completed + x.completed;
      r.failed <- r.failed + x.failed;
      r.mismatches <- r.mismatches + x.mismatches;
      r.first_mismatch <- r.first_mismatch @ x.first_mismatch;
      Array.iteri (fun i v -> r.svc_ns.(i) <- r.svc_ns.(i) + v) x.svc_ns;
      Array.iteri (fun i v -> r.svc_n.(i) <- r.svc_n.(i) + v) x.svc_n)
    rs;
  let cat f = Floats.concat (List.map f rs) in
  let fill (dst : Floats.t) a = Array.iter (Floats.add dst) a in
  for i = 0 to 2 do
    fill r.lat.(i) (cat (fun x -> x.lat.(i)));
    fill r.due.(i) (cat (fun x -> x.due.(i)))
  done;
  fill r.late (cat (fun x -> x.late));
  fill r.finish (cat (fun x -> x.finish));
  r

type conn = {
  idx : int;
  client : Client.t;
  mutable next_id : int;  (** mirrors the client's request ids *)
  table : (int, pending) Hashtbl.t;
  lock : Mutex.t;
  done_ : bool Atomic.t;
  res : result;
}

let connect ~port idx =
  {
    idx;
    client = Client.connect ~port ();
    next_id = 1;
    table = Hashtbl.create 64;
    lock = Mutex.create ();
    done_ = Atomic.make false;
    res = make_result ();
  }

let op_index = function
  | Workload.Get _ | Workload.Get_absent _ -> 0
  | Workload.Put _ -> 1
  | Workload.Scan _ -> 2

let span_kind = function
  | Workload.Get _ | Workload.Get_absent _ -> Tracer.Client_get
  | Workload.Put _ -> Tracer.Client_put
  | Workload.Scan _ -> Tracer.Client_scan

(* Build the request for [op], note it in the model, and describe it. *)
let prepare (m : Model.t) ~version ~due op =
  let ks = m.Model.ks in
  match op with
  | Workload.Get slot ->
    let key = Model.key ks slot in
    (Protocol.Get { key }, { op; key; version = 0; floor = m.acked.(slot); due; sent = 0; send_ns = 0 })
  | Workload.Get_absent slot ->
    let key = Model.absent_key ks slot in
    (Protocol.Get { key }, { op; key; version = 0; floor = -1; due; sent = 0; send_ns = 0 })
  | Workload.Put slot ->
    let key = Model.key ks slot in
    let value = Model.make_value key ~writer:(Model.owner m slot) ~version in
    Model.note_sent m slot version;
    (Protocol.Put { key; value }, { op; key; version; floor = 0; due; sent = 0; send_ns = 0 })
  | Workload.Scan (lo, len) ->
    let key = Model.key ks lo in
    let hi = Model.key ks (lo + len) in
    ( Protocol.Scan { lo = key; hi; limit = Some len },
      { op; key; version = 0; floor = 0; due; sent = 0; send_ns = 0 } )

let mismatch r msg =
  r.mismatches <- r.mismatches + 1;
  if List.length r.first_mismatch < 5 then r.first_mismatch <- r.first_mismatch @ [ msg ]

(* Judge one response. [`Ok] answered and correct; [`Failed] refused or
   wrong-shaped; a wrong answer is recorded as a mismatch (and also
   counts as answered — correctness is reported separately). *)
let judge (m : Model.t) r p resp =
  let checked = function
    | Ok () -> `Ok
    | Error msg ->
      mismatch r msg;
      `Ok
  in
  match (p.op, resp) with
  | Workload.Put slot, Protocol.Ack ->
    Model.note_acked m slot p.version;
    `Ok
  | Workload.Get slot, Protocol.Value { value } ->
    checked (Model.check_get m ~slot ~absent:false ~floor:p.floor (Some value))
  | Workload.Get slot, Protocol.Not_found ->
    checked (Model.check_get m ~slot ~absent:false ~floor:p.floor None)
  | Workload.Get_absent slot, Protocol.Value { value } ->
    checked (Model.check_get m ~slot ~absent:true ~floor:(-1) (Some value))
  | Workload.Get_absent _, Protocol.Not_found -> `Ok
  | Workload.Scan (lo, len), Protocol.Entries es ->
    let ks = m.Model.ks in
    checked
      (Model.check_scan m ~lo:(Model.key ks lo) ~hi:(Model.key ks (lo + len))
         ~limit:len es)
  | _, Protocol.Error _ -> `Failed
  | _, _ -> `Failed

let sample r p lat =
  let i = op_index p.op in
  Floats.add r.lat.(i) lat;
  Floats.add r.due.(i) (float_of_int p.due)

(* Record one answered request. *)
let complete (m : Model.t) c p resp ~now ~t_end ~open_loop =
  let r = c.res in
  let i = op_index p.op in
  Tracer.record (span_kind p.op) ~start:p.sent ~stop:now ~req:p.key ~aux:p.send_ns ();
  match judge m r p resp with
  | `Ok ->
    if now <= t_end then begin
      r.completed <- r.completed + 1;
      if not open_loop then Floats.add r.finish (float_of_int now)
    end;
    r.svc_ns.(i) <- r.svc_ns.(i) + (now - p.sent);
    r.svc_n.(i) <- r.svc_n.(i) + 1;
    if open_loop then sample r p (Pct.latency_us ~due:p.due ~received:now)
  | `Failed ->
    r.failed <- r.failed + 1;
    if open_loop then sample r p infinity

(* Requests still outstanding when a connection gives up: failed, +inf. *)
let abandon c ~open_loop =
  Mutex.lock c.lock;
  let left = Hashtbl.fold (fun _ p acc -> p :: acc) c.table [] in
  Hashtbl.reset c.table;
  Mutex.unlock c.lock;
  List.iter
    (fun p ->
      c.res.failed <- c.res.failed + 1;
      if open_loop then sample c.res p infinity)
    left

let take c id =
  Mutex.lock c.lock;
  let p = Hashtbl.find_opt c.table id in
  if p <> None then Hashtbl.remove c.table id;
  Mutex.unlock c.lock;
  p

let outstanding c =
  Mutex.lock c.lock;
  let n = Hashtbl.length c.table in
  Mutex.unlock c.lock;
  n

(* Register [p] under the id the next send will carry, then send it.
   Returns false when the connection is gone. *)
let issue c req p =
  let id = c.next_id in
  c.next_id <- id + 1;
  Mutex.lock c.lock;
  Hashtbl.replace c.table id p;
  Mutex.unlock c.lock;
  c.res.attempted <- c.res.attempted + 1;
  p.sent <- Clock.now_ns ();
  match Client.send c.client req with
  | sent_id ->
    p.send_ns <- Clock.now_ns () - p.sent;
    assert (sent_id = id);
    true
  | exception Unix.Unix_error _ -> false

let grace_ns = 2_000_000_000

let closed_loop (m : Model.t) w ~seed ~conns ~inflight ~phase ~t_end c =
  let g = Workload.gen w ~seed ~conn:c.idx ~conns ~phase in
  let version = ref (Workload.version_base phase) in
  let alive = ref true in
  let finished = ref false in
  while not !finished do
    while !alive && Clock.now_ns () < t_end && outstanding c < inflight do
      let op = Workload.next g in
      if Workload.op_kind op = `Put then incr version;
      let req, p = prepare m ~version:!version ~due:(Clock.now_ns ()) op in
      if not (issue c req p) then alive := false
    done;
    if outstanding c = 0 && (Clock.now_ns () >= t_end || not !alive) then
      finished := true
    else if Clock.now_ns () > t_end + grace_ns then finished := true
    else
      match Client.recv c.client with
      | Ok (id, resp) -> (
        let now = Clock.now_ns () in
        match take c id with
        | Some p -> complete m c p resp ~now ~t_end ~open_loop:false
        | None -> ())
      | Error _ -> finished := true
  done;
  abandon c ~open_loop:false;
  Atomic.set c.done_ true

let open_loop (m : Model.t) w ~seed ~conns ~rate ~t0 ~t_end c =
  let g = Workload.gen w ~seed ~conn:c.idx ~conns ~phase:Workload.Open in
  let sender_done = Atomic.make false in
  let late = Floats.create () in
  let sender () =
    Clock.set_timer_slack_ns 1_000;
    let version = ref (Workload.version_base Workload.Open) in
    let rec go i =
      let due = Pct.due_ns ~t0 ~rate ~conns ~conn:c.idx i in
      if due < t_end then begin
        Clock.sleep_until due;
        let op = Workload.next g in
        if Workload.op_kind op = `Put then incr version;
        let req, p = prepare m ~version:!version ~due op in
        if issue c req p then begin
          Floats.add late (Pct.lateness_us ~due ~sent:p.sent);
          go (i + 1)
        end
      end
    in
    go 0;
    Atomic.set sender_done true;
    (* Wake the receiver: a response with an id it does not track. *)
    c.next_id <- c.next_id + 1;
    try ignore (Client.send c.client Protocol.Ping) with Unix.Unix_error _ -> ()
  in
  let th = Thread.create sender () in
  let finished = ref false in
  while not !finished do
    let sdone = Atomic.get sender_done in
    if sdone && outstanding c = 0 then finished := true
    else if sdone && Clock.now_ns () > t_end + grace_ns then finished := true
    else
      match Client.recv c.client with
      | Ok (id, resp) -> (
        let now = Clock.now_ns () in
        match take c id with
        | Some p -> complete m c p resp ~now ~t_end:max_int ~open_loop:true
        | None -> ())
      | Error _ -> finished := true
  done;
  Thread.join th;
  abandon c ~open_loop:true;
  Array.iter (Floats.add c.res.late) (Floats.to_array late);
  Atomic.set c.done_ true

(* Run [body] for each connection in its own domain; after [deadline],
   wake any connection still waiting on the server with pings until every
   domain has finished. *)
let run_conns ~port ~conns ~deadline body =
  let cs = List.init conns (connect ~port) in
  let ds = List.map (fun c -> Domain.spawn (fun () -> body c)) cs in
  Clock.sleep_until deadline;
  while not (List.for_all (fun c -> Atomic.get c.done_) cs) do
    List.iter
      (fun c ->
        if not (Atomic.get c.done_) then
          try ignore (Client.send c.client Protocol.Ping) with Unix.Unix_error _ -> ())
      cs;
    Unix.sleepf 0.05
  done;
  List.iter Domain.join ds;
  List.iter (fun c -> Client.close c.client) cs;
  merge (List.map (fun c -> c.res) cs)

(* Closed-loop capacity: the median over [windows] equal slices of the
   phase of the ops completed in each, so one stall does not move it. *)
let windows = 8

let median_rate ~t0 ~seconds finish =
  let counts = Array.make windows 0 in
  let w_ns = seconds *. 1e9 /. float_of_int windows in
  Array.iter
    (fun t ->
      let i = int_of_float ((t -. float_of_int t0) /. w_ns) in
      if i >= 0 && i < windows then counts.(i) <- counts.(i) + 1)
    finish;
  let rates = Array.map (fun c -> float_of_int c /. (w_ns /. 1e9)) counts in
  Array.sort Float.compare rates;
  (rates.((windows / 2) - 1) +. rates.(windows / 2)) /. 2.0

let closed_phase m w ~seed ~port ~conns ~inflight ~phase ~seconds =
  let t0 = Clock.now_ns () in
  let t_end = t0 + int_of_float (seconds *. 1e9) in
  let r =
    run_conns ~port ~conns ~deadline:(t_end + grace_ns)
      (closed_loop m w ~seed ~conns ~inflight ~phase ~t_end)
  in
  (r, median_rate ~t0 ~seconds (Floats.to_array r.finish))

let open_phase m w ~seed ~port ~conns ~rate ~seconds =
  let t0 = Clock.now_ns () + 1_000_000 in
  let t_end = t0 + int_of_float (seconds *. 1e9) in
  run_conns ~port ~conns ~deadline:(t_end + grace_ns)
    (open_loop m w ~seed ~conns ~rate ~t0 ~t_end)
