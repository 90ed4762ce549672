(* Exact percentiles over recorded samples, with failures as +infinity, and
   the open-loop due-time arithmetic. *)

(* Nearest-rank percentile: the smallest sample with at least [p]% of the
   samples at or below it. [infinity] samples (failed or unanswered
   requests) sort last, so a failure counts as missing any latency limit. *)
let percentile samples p =
  let n = Array.length samples in
  if n = 0 then nan
  else begin
    let a = Array.copy samples in
    Array.sort Float.compare a;
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))
  end

(* Samples needed so that at least ten lie beyond the 99th percentile. *)
let min_samples_p99 = 1000

(* The [i]th send of connection [conn] out of [conns] at [rate] ops/s
   across all connections: evenly spaced per connection, with the
   connections staggered across one interval. *)
let due_ns ~t0 ~rate ~conns ~conn i =
  let interval = float_of_int conns /. rate *. 1e9 in
  t0 + int_of_float (interval *. (float_of_int i +. float_of_int conn /. float_of_int conns))

(* How late a send went out relative to its due time, in µs; 0 for a send
   on time (the generator never sends early). *)
let lateness_us ~due ~sent = Float.max 0.0 (float_of_int (sent - due) /. 1e3)

(* Latency of an open-loop request, from when it was due, in µs. *)
let latency_us ~due ~received = float_of_int (received - due) /. 1e3

(* The median over [windows] equal slices of the due-time span of each
   slice's [p]th percentile: a stall confined to a few slices does not move
   it. Slices without samples are skipped. *)
let windowed ~windows samples ~due p =
  let n = Array.length samples in
  if n = 0 then nan
  else begin
    let lo = Array.fold_left Float.min infinity due in
    let hi = Array.fold_left Float.max neg_infinity due +. 1.0 in
    let width = (hi -. lo) /. float_of_int windows in
    let slices = Array.make windows [] in
    Array.iteri
      (fun i d ->
        let w = min (windows - 1) (int_of_float ((d -. lo) /. width)) in
        slices.(w) <- samples.(i) :: slices.(w))
      due;
    let per =
      Array.to_list slices
      |> List.filter (fun l -> l <> [])
      |> List.map (fun l -> percentile (Array.of_list l) p)
    in
    percentile (Array.of_list per) 50.0
  end
