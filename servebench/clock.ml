(* Monotonic time for every duration and deadline in the benchmark. The
   wall clock can step; CLOCK_MONOTONIC (through bechamel's stub) cannot. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let ms_of_ns ns = float_of_int ns /. 1e6

let s_of_ns ns = float_of_int ns /. 1e9

(* Sleep until the monotonic clock reads [deadline_ns] (no-op when past). *)
let sleep_until deadline_ns =
  let d = deadline_ns - now_ns () in
  if d > 0 then Unix.sleepf (float_of_int d /. 1e9)

(* Timer slack of the calling thread, in ns (Linux; a no-op elsewhere).
   The default 50 us slack would make every open-loop send late by that
   much, and latency is measured from the due time. *)
external set_timer_slack_ns : int -> unit = "servebench_set_timer_slack_ns"
