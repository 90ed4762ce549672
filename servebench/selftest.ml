(* Checks of the benchmark itself: the reference-model checker catches a
   planted wrong value and a planted lost acked write, op streams are
   deterministic per seed, and the percentile and due-time arithmetic is
   right. Exit status 1 on any failure. *)

open Servebench

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end
  else Printf.printf "ok   %s\n" name

let is_error = function Error _ -> true | Ok () -> false

let model () =
  let m = Model.create (Model.keys 100) ~conns:2 in
  List.iter (Model.preload m) [ 0; 1; 2; 3 ];
  (* Connection 0 owns even slots: version 5 of slot 2 sent and acked. *)
  Model.note_sent m 2 5;
  Model.note_acked m 2 5;
  m

let value m slot ~writer ~version =
  let k = Model.key m.Model.ks slot in
  (k, Model.make_value k ~writer ~version)

let checker () =
  let m = model () in
  let _, good = value m 2 ~writer:0 ~version:5 in
  check "get: acked version accepted"
    (not (is_error (Model.check_get m ~slot:2 ~absent:false ~floor:5 (Some good))));
  let _, stale = value m 2 ~writer:Model.preload_writer ~version:0 in
  check "get: stale version rejected"
    (is_error (Model.check_get m ~slot:2 ~absent:false ~floor:5 (Some stale)));
  let _, other_key = value m 3 ~writer:0 ~version:5 in
  check "get: another key's value rejected"
    (is_error (Model.check_get m ~slot:2 ~absent:false ~floor:5 (Some other_key)));
  let corrupt = Bytes.of_string good in
  Bytes.set corrupt 90 (if Bytes.get corrupt 90 = 'a' then 'b' else 'a');
  check "get: corrupted filler rejected"
    (is_error
       (Model.check_get m ~slot:2 ~absent:false ~floor:5
          (Some (Bytes.to_string corrupt))));
  let _, future = value m 2 ~writer:0 ~version:6 in
  check "get: never-sent version rejected"
    (is_error (Model.check_get m ~slot:2 ~absent:false ~floor:5 (Some future)));
  check "get: missing acked key rejected"
    (is_error (Model.check_get m ~slot:2 ~absent:false ~floor:5 None));
  check "get: absent key must be absent"
    (is_error (Model.check_get m ~slot:2 ~absent:true ~floor:(-1) (Some good)));
  let sweep = List.map (fun s ->
    let v = if s = 2 then 5 else 0 in
    let w = if s = 2 then 0 else Model.preload_writer in
    value m s ~writer:w ~version:v) [ 0; 1; 2; 3 ] in
  check "sweep: intact store passes" (fst (Model.check_sweep m sweep) = 0);
  let lost = List.filter (fun (k, _) -> k <> Model.key m.ks 1) sweep in
  check "sweep: planted lost acked write caught" (fst (Model.check_sweep m lost) = 1);
  let wrong =
    List.map (fun (k, v) -> if k = Model.key m.ks 2 then (k, stale) else (k, v)) sweep
  in
  check "sweep: planted wrong value caught" (fst (Model.check_sweep m wrong) = 1);
  let lo = Model.key m.ks 0 and hi = Model.key m.ks 3 in
  let in_range = List.filteri (fun i _ -> i < 3) sweep in
  check "scan: ascending in-range result passes"
    (not (is_error (Model.check_scan m ~lo ~hi ~limit:3 in_range)));
  check "scan: over-limit result rejected"
    (is_error (Model.check_scan m ~lo ~hi ~limit:2 in_range));
  check "scan: descending result rejected"
    (is_error (Model.check_scan m ~lo ~hi ~limit:3 (List.rev in_range)));
  check "scan: out-of-range key rejected"
    (is_error (Model.check_scan m ~lo ~hi ~limit:4 sweep))

let determinism () =
  let stream w seed =
    let g = Workload.gen w ~seed ~conn:1 ~conns:2 ~phase:Workload.Open in
    List.init 2000 (fun _ -> Workload.next g)
  in
  List.iter
    (fun (w : Workload.t) ->
      check (w.name ^ ": same seed, same stream") (stream w 7 = stream w 7);
      check (w.name ^ ": other seed, other stream") (stream w 7 <> stream w 8))
    Workload.all;
  let owned =
    let g = Workload.gen Workload.ingest ~seed:3 ~conn:1 ~conns:2 ~phase:Workload.Closed in
    List.for_all
      (function Workload.Put s -> s mod 2 = 1 | _ -> true)
      (List.init 5000 (fun _ -> Workload.next g))
  in
  check "puts stay in the connection's key subset" owned;
  let phases = Workload.[ Closed; Closed_traced; Open; Probe ] in
  let bases = List.map Workload.version_base phases in
  check "each phase's versions start above the previous phase's"
    (List.sort_uniq compare bases = bases && List.hd bases = 0)

let arithmetic () =
  let a = Array.init 100 (fun i -> float_of_int (i + 1)) in
  check "p50 of 1..100 is 50" (Pct.percentile a 50.0 = 50.0);
  check "p99 of 1..100 is 99" (Pct.percentile a 99.0 = 99.0);
  check "p100 is the max" (Pct.percentile a 100.0 = 100.0);
  check "p50 of one sample" (Pct.percentile [| 7.0 |] 50.0 = 7.0);
  let with_fail = Array.append (Array.init 99 float_of_int) [| infinity |] in
  check "a failure sorts last: p99 finite" (Float.is_finite (Pct.percentile with_fail 99.0));
  check "a failure sorts last: p100 infinite" (Pct.percentile with_fail 100.0 = infinity);
  let two_fail = Array.append (Array.init 98 float_of_int) [| infinity; infinity |] in
  check "two failures in 100 push p99 to infinity" (Pct.percentile two_fail 99.0 = infinity);
  check "empty sample set is nan" (Float.is_nan (Pct.percentile [||] 50.0));
  (* 1000 ops/s over 2 connections: each sends every 2 ms, staggered 1 ms. *)
  let due = Pct.due_ns ~t0:0 ~rate:1000.0 ~conns:2 in
  check "due: first send at t0" (due ~conn:0 0 = 0);
  check "due: second connection staggered" (due ~conn:1 0 = 1_000_000);
  check "due: per-connection spacing" (due ~conn:0 3 = 6_000_000);
  check "lateness: on time is 0" (Pct.lateness_us ~due:1000 ~sent:1000 = 0.0);
  check "lateness: 2.5 us late" (Pct.lateness_us ~due:1000 ~sent:3500 = 2.5);
  check "lateness: early clamps to 0" (Pct.lateness_us ~due:5000 ~sent:1000 = 0.0);
  check "latency from due time" (Pct.latency_us ~due:1000 ~received:251_000 = 250.0);
  (* Four slices of 10 samples; one slice stalled at 1000. *)
  let due = Array.init 40 float_of_int in
  let lat = Array.init 40 (fun i -> if i < 10 then 1000.0 else float_of_int (i mod 10)) in
  check "windowed p50 ignores a stalled slice" (Pct.windowed ~windows:4 lat ~due 50.0 = 4.0);
  check "windowed p50 of one slice is its p50"
    (Pct.windowed ~windows:1 lat ~due 50.0 = Pct.percentile lat 50.0)

let () =
  checker ();
  determinism ();
  arithmetic ();
  if !failures > 0 then begin
    Printf.printf "%d self-test failure(s)\n" !failures;
    exit 1
  end
