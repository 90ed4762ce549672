(* In-memory span recorder for the traced run, and the per-layer self-time
   attribution computed from its spans.

   Spans are recorded from outside the system, around calls into public
   functions: each client request (send to response), each [store_ops]
   closure call the server makes (get, scan, one group-commit window), and
   each device call (append, sync, read). Every domain appends to its own
   buffer, so recording takes no lock; a device span's parent is the store
   call open on the same domain at the time (-1 for pool maintenance). *)

type kind =
  | Client_get
  | Client_put
  | Client_scan
  | Store_get
  | Store_scan
  | Store_commit
  | Dev_append
  | Dev_sync
  | Dev_read

type span = {
  kind : kind;
  start : int;
  mutable stop : int;
  parent : int;
  req : string;  (** request id: the key of a get/put, the low key of a scan *)
  keys : string array;  (** a commit window's keys *)
  aux : int;  (** client spans: time inside [Client.send], ns *)
}

type buf = {
  id : int;
  mutable spans : span array;
  mutable len : int;
  mutable open_parent : int;
}

let enabled = ref false

let registry : buf list ref = ref []

let registry_lock = Mutex.create ()

let next_id = ref 0

let dummy =
  { kind = Dev_read; start = 0; stop = 0; parent = -1; req = ""; keys = [||];
    aux = 0 }

let buf_key =
  Domain.DLS.new_key (fun () ->
      Mutex.lock registry_lock;
      let b =
        { id = !next_id; spans = Array.make 4096 dummy; len = 0;
          open_parent = -1 }
      in
      incr next_id;
      registry := b :: !registry;
      Mutex.unlock registry_lock;
      b)

let push b s =
  if b.len = Array.length b.spans then begin
    let bigger = Array.make (2 * b.len) dummy in
    Array.blit b.spans 0 bigger 0 b.len;
    b.spans <- bigger
  end;
  b.spans.(b.len) <- s;
  b.len <- b.len + 1;
  b.len - 1

let reset () =
  Mutex.lock registry_lock;
  List.iter
    (fun b ->
      b.len <- 0;
      b.open_parent <- -1)
    !registry;
  Mutex.unlock registry_lock

(* A leaf span, parented to the store call open on this domain. *)
let record kind ~start ~stop ?(req = "") ?(aux = 0) () =
  if !enabled then begin
    let b = Domain.DLS.get buf_key in
    ignore
      (push b { kind; start; stop; parent = b.open_parent; req; keys = [||];
                aux })
  end

(* Open a store-call span on this domain; device spans recorded until
   [leave] name it as their parent. Returns a token for [leave]. *)
let enter kind ?(req = "") ?(keys = [||]) start =
  if not !enabled then -1
  else begin
    let b = Domain.DLS.get buf_key in
    let idx =
      push b { kind; start; stop = start; parent = -1; req; keys; aux = 0 }
    in
    b.open_parent <- idx;
    idx
  end

let leave token stop =
  if token >= 0 then begin
    let b = Domain.DLS.get buf_key in
    b.spans.(token).stop <- stop;
    b.open_parent <- -1
  end

(* Every recorded span, per domain buffer. Call only once the recording
   domains have joined or gone quiet. *)
let collect () =
  Mutex.lock registry_lock;
  let all = List.map (fun b -> (b.id, Array.sub b.spans 0 b.len)) !registry in
  Mutex.unlock registry_lock;
  all

(* ------------------------------------------------------------------ *)
(* Attribution *)

type op = Get | Put | Scan

let op_name = function Get -> "get" | Put -> "put" | Scan -> "scan"

type attribution = {
  op : op;
  requests : int;  (** traced client requests of this op type *)
  matched : int;  (** those whose store call was found *)
  e2e_us : float;  (** mean client latency (send to response), all requests *)
  client_us : float;  (** mean time inside [Client.send] *)
  server_us : float;
      (** wire, dispatch, job queue, response: client latency outside
          [Client.send] and outside the store call, less group-commit wait *)
  group_commit_us : float;
  sharded_store_us : float;  (** store call minus device time inside it *)
  storage_us : float;  (** device calls made inside the store call *)
  residual_frac : float;  (** (e2e - sum of layers) / e2e *)
  p50_us : float array;
      (** per layer, in {!layers} order: the median over matched requests.
          Medians do not add up to a latency; they show the typical request
          where a few stalls dominate the means. *)
}

let layers = [| "client"; "server"; "group_commit"; "sharded_store"; "storage" |]

let layer_sum a =
  a.client_us +. a.server_us +. a.group_commit_us +. a.sharded_store_us
  +. a.storage_us

(* [gc_wait_us]: the mean time a put spends inside Group_commit outside the
   commit call, from the group-commit layer's own window clock. The wire
   cannot tell it apart from server queueing, so each put's time outside
   the client and the store call is split with it (capped per request). *)
let attribute ~gc_wait_us spans =
  let nested = Hashtbl.create 4096 in
  List.iter
    (fun (bid, arr) ->
      Array.iter
        (fun s ->
          match s.kind with
          | Dev_append | Dev_sync | Dev_read when s.parent >= 0 ->
            let k = (bid, s.parent) in
            let prev = Option.value ~default:0 (Hashtbl.find_opt nested k) in
            Hashtbl.replace nested k (prev + (s.stop - s.start))
          | _ -> ())
        arr)
    spans;
  (* Store calls per (op, request id), sorted by start time. *)
  let by_req = Hashtbl.create 65536 in
  List.iter
    (fun (bid, arr) ->
      Array.iteri
        (fun idx s ->
          let dev =
            Option.value ~default:0 (Hashtbl.find_opt nested (bid, idx))
          in
          let add op key =
            Hashtbl.replace by_req (op, key)
              ((s.start, s.stop, dev)
              :: Option.value ~default:[] (Hashtbl.find_opt by_req (op, key)))
          in
          match s.kind with
          | Store_get -> add Get s.req
          | Store_scan -> add Scan s.req
          | Store_commit -> Array.iter (add Put) s.keys
          | _ -> ())
        arr)
    spans;
  let store_calls = Hashtbl.create (Hashtbl.length by_req) in
  Hashtbl.iter
    (fun k l ->
      let a = Array.of_list l in
      Array.sort compare a;
      Hashtbl.replace store_calls k a)
    by_req;
  (* The first call for this request id that starts inside [s0, s1] and
     also ends inside it. *)
  let find op req s0 s1 =
    match Hashtbl.find_opt store_calls (op, req) with
    | None -> None
    | Some a ->
      let lo = ref 0 and hi = ref (Array.length a) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        let c0, _, _ = a.(mid) in
        if c0 < s0 then lo := mid + 1 else hi := mid
      done;
      let rec scan i =
        if i >= Array.length a then None
        else
          let c0, c1, _ = a.(i) in
          if c0 > s1 then None else if c1 <= s1 then Some a.(i) else scan (i + 1)
      in
      scan !lo
  in
  let gc_wait_ns = int_of_float (gc_wait_us *. 1e3) in
  (* Per op: [requests; latency sum] over all client spans, and each
     matched request's split (client, server, group commit, sharded store,
     storage), in ns. *)
  let ops = [ Get; Put; Scan ] in
  let totals = List.map (fun op -> (op, Array.make 2 0)) ops in
  let splits = List.map (fun op -> (op, ref [])) ops in
  List.iter
    (fun (_, arr) ->
      Array.iter
        (fun s ->
          let op =
            match s.kind with
            | Client_get -> Some Get
            | Client_put -> Some Put
            | Client_scan -> Some Scan
            | _ -> None
          in
          Option.iter
            (fun op ->
              let t = List.assoc op totals in
              let lat = s.stop - s.start in
              t.(0) <- t.(0) + 1;
              t.(1) <- t.(1) + lat;
              match find op s.req s.start s.stop with
              | None -> ()
              | Some (c0, c1, dev) ->
                let outside = max 0 (lat - s.aux - (c1 - c0)) in
                let gc = if op = Put then min outside gc_wait_ns else 0 in
                let r = List.assoc op splits in
                r := [| s.aux; outside - gc; gc; c1 - c0 - dev; dev |] :: !r)
            op)
        arr)
    spans;
  List.map
    (fun op ->
      let t = List.assoc op totals in
      let rs = Array.of_list !(List.assoc op splits) in
      let layer f =
        Array.mapi
          (fun i _ ->
            if rs = [||] then 0.0
            else f (Array.map (fun v -> float_of_int v.(i) /. 1e3) rs))
          layers
      in
      let mean = layer (fun a -> Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)) in
      let e2e = float_of_int t.(1) /. float_of_int (max 1 t.(0)) /. 1e3 in
      let r =
        {
          op;
          requests = t.(0);
          matched = Array.length rs;
          e2e_us = e2e;
          client_us = mean.(0);
          server_us = mean.(1);
          group_commit_us = mean.(2);
          sharded_store_us = mean.(3);
          storage_us = mean.(4);
          residual_frac = 0.0;
          p50_us = layer (fun a -> Pct.percentile a 50.0);
        }
      in
      if t.(0) = 0 then r
      else { r with residual_frac = (e2e -. layer_sum r) /. e2e })
    ops
