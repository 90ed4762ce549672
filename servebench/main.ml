(* End-to-end served benchmark. See README.md in this directory.

   main.exe --workload (ingest|point_hot|range_cold|all) --seed N
            --seconds S --trace (0|1)

   One run: set the stack up three times (the median is setup_s; the last
   one serves), run a closed-loop phase (capacity) and an open-loop phase
   (latency at a fixed offered rate), stop the server, measure the read path
   on the resting store, bring the store to quiescence, and sweep every key
   against the reference model. The last line of stdout is the result as
   JSON: end-to-end metrics untraced, per-layer metrics traced. Exit status
   1 on any reference-model mismatch. *)

open Servebench
module Sharded = Stack.Sharded
module Store = Wipdb.Store
module Io_stats = Wip_storage.Io_stats
module Env = Wip_storage.Env

let conns = 2

let inflight = 8

let setups = 3

let mb x = float_of_int x /. 1048576.0

let per a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* Preload, let the pool finish, and warm the block cache with point reads
   spread over the preloaded keys. *)
let setup (w : Workload.t) =
  let t0 = Clock.now_ns () in
  let s = Stack.create () in
  let m = Model.create (Model.keys w.slots) ~conns in
  let slots = List.filter w.preloaded (List.init w.slots Fun.id) in
  Stack.preload s m slots;
  Stack.quiesce s;
  let step = max 1 (List.length slots / 8000) in
  List.iteri
    (fun i slot ->
      if i mod step = 0 then ignore (Sharded.get s.st (Model.key m.ks slot)))
    slots;
  (s, m, Clock.s_of_ns (Clock.now_ns () - t0))

type probe = {
  gets : int;
  entries : int;
  get_io : Io_stats.t;
  scan_io : Io_stats.t;
  get_dev : Device.snapshot;
  scan_dev : Device.snapshot;
  memtable_probes : int;
}

(* The workload's own read mix, replayed directly on the resting sharded
   store (server stopped, pool idle), so every read-path counter delta
   belongs to one op type. *)
let probe_read_path (w : Workload.t) ~seed (s : Stack.t) (m : Model.t) =
  let g_share, _, s_share = Workload.mix w in
  let want_gets = if g_share > 0.0 then 2000 else 0 in
  let want_scans = if s_share > 0.0 then 400 else 0 in
  let g = Workload.gen w ~seed ~conn:0 ~conns ~phase:Workload.Probe in
  let rng = Wip_util.Rng.create ~seed:(Int64.of_int (seed + 77)) in
  let written =
    let acc = ref [] in
    Array.iteri (fun i v -> if v > 0 then acc := i :: !acc) m.Model.acked;
    Array.of_list !acc
  in
  let get_ops = ref [] and scan_ops = ref [] in
  let ng = ref 0 and ns = ref 0 in
  while !ng < want_gets || !ns < want_scans do
    match Workload.next g with
    | (Workload.Get _ | Workload.Get_absent _) as op when !ng < want_gets ->
      (* Ingest reads recently acked keys: take them from the model. *)
      let op =
        match (w.kind, op) with
        | Workload.Ingest, _ when Array.length written > 0 ->
          Workload.Get written.(Wip_util.Rng.int rng (Array.length written))
        | _ -> op
      in
      get_ops := op :: !get_ops;
      incr ng
    | Workload.Scan _ as op when !ns < want_scans ->
      scan_ops := op :: !scan_ops;
      incr ns
    | _ -> ()
  done;
  let io () = Io_stats.snapshot (Stack.stats s) in
  let mprobes () = Stack.sum_shards s Store.memtable_probes in
  let io0 = io () and dev0 = Device.snapshot s.dev and mp0 = mprobes () in
  Device.set_ctx Device.Ctx_get;
  List.iter
    (function
      | Workload.Get slot -> ignore (Sharded.get s.st (Model.key m.ks slot))
      | Workload.Get_absent slot ->
        ignore (Sharded.get s.st (Model.absent_key m.ks slot))
      | _ -> ())
    !get_ops;
  let io1 = io () and dev1 = Device.snapshot s.dev and mp1 = mprobes () in
  Device.set_ctx Device.Ctx_scan;
  let entries = ref 0 in
  List.iter
    (function
      | Workload.Scan (lo, len) ->
        let es =
          Sharded.scan s.st ~lo:(Model.key m.ks lo) ~hi:(Model.key m.ks (lo + len))
            ~limit:len ()
        in
        entries := !entries + List.length es
      | _ -> ())
    !scan_ops;
  Device.set_ctx Device.Ctx_other;
  let io2 = io () and dev2 = Device.snapshot s.dev in
  {
    gets = !ng;
    entries = !entries;
    get_io = Io_stats.diff io1 io0;
    scan_io = Io_stats.diff io2 io1;
    get_dev = Device.diff dev1 dev0;
    scan_dev = Device.diff dev2 dev1;
    memtable_probes = mp1 - mp0;
  }

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : Report.metric list;
  extra : Report.metric list;  (** printed to stderr only *)
  mismatches : string list;
}

let sum_levels f io = List.fold_left (fun acc l -> acc + f io l) 0 (List.init 16 Fun.id)

let run (w : Workload.t) ~seed ~seconds ~trace =
  Tracer.enabled := false;
  Tracer.reset ();
  (* Set up [setups] times; every stack but the last is torn down before
     the next is built. *)
  let rec setup_n k times =
    let s, m, t = setup w in
    if k = 1 then (s, m, Pct.percentile (Array.of_list (t :: times)) 50.0)
    else begin
      Stack.stop s;
      Gc.compact ();
      setup_n (k - 1) (t :: times)
    end
  in
  let s, m, setup_s = setup_n setups [] in
  (* Every run starts its load from a compacted heap. *)
  Gc.compact ();
  let port = Wip_server.Server.port s.srv in
  let stats = Stack.stats s in
  let io0 = Io_stats.snapshot stats and dev0 = Device.snapshot s.dev in
  let gc0 = Gc.quick_stat () in
  let cycles0 = Sharded.compaction_cycles s.st in
  let comps0 = Stack.sum_shards s Store.compaction_count in
  let splits0 = Stack.sum_shards s Store.split_count in
  (* Closed loop: capacity. Traced runs measure it untraced and traced. *)
  let closed phase seconds =
    Loadgen.closed_phase m w ~seed ~port ~conns ~inflight ~phase ~seconds
  in
  let closed_s = if trace then 0.15 *. seconds else 0.3 *. seconds in
  let open_s = 0.7 *. seconds in
  let closed_r, throughput = closed Workload.Closed closed_s in
  let traced_closed =
    if trace then begin
      Tracer.enabled := true;
      let r, thr = closed Workload.Closed_traced closed_s in
      Tracer.reset ();
      Some (r, thr)
    end
    else None
  in
  (* Open loop: latency at the workload's fixed offered rate. *)
  Stack.reset_timers s.timers;
  let srv_io0 = Io_stats.snapshot s.server_stats in
  let open_r =
    Loadgen.open_phase m w ~seed ~port ~conns ~rate:w.rate ~seconds:open_s
  in
  Tracer.enabled := false;
  let srv_io = Io_stats.diff (Io_stats.snapshot s.server_stats) srv_io0 in
  let timer i = (Atomic.get s.timers.calls.(i), Atomic.get s.timers.ns.(i)) in
  let refusals = Atomic.get s.timers.refusals in
  let io1 = Io_stats.snapshot stats and dev1 = Device.snapshot s.dev in
  let sorted_frac =
    let sorted, total =
      Sharded.fold_shards s.st ~init:(0, 0) ~f:(fun (a, b) st ->
          List.fold_left
            (fun (a, b) (bi : Store.bucket_info) ->
              ( (if bi.memtable_structure = Wip_memtable.Memtable.Sorted then a + 1
                 else a),
                b + 1 ))
            (a, b) (Store.bucket_infos st))
    in
    per sorted total
  in
  (* Server domains join here; GC counters then include their work. *)
  Wip_server.Server.stop s.srv;
  let gc1 = Gc.quick_stat () in
  (* Live heap of the served process at the end of the load: the store,
     its simulated device's bytes, and the benchmark's own model. *)
  Gc.full_major ();
  let heap_live_mb = mb ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) in
  Stack.wait_pool_idle s;
  let probe = probe_read_path w ~seed s m in
  Stack.quiesce s;
  let io2 = Io_stats.snapshot stats in
  let cycles1 = Sharded.compaction_cycles s.st in
  let comps1 = Stack.sum_shards s Store.compaction_count in
  let splits1 = Stack.sum_shards s Store.split_count in
  let buckets = Stack.sum_shards s Store.bucket_count in
  (* Untimed sweep: every acked write reads back. *)
  let everything = Sharded.scan s.st ~lo:"" ~hi:"\255" () in
  let sweep_errors, sweep_first = Model.check_sweep m everything in
  let live_bytes = Env.total_live_bytes s.dev.env in
  let table_bytes =
    Stack.sum_shards s (fun st -> List.fold_left ( + ) 0 (Store.file_sizes st))
  in
  Sharded.stop s.st;
  let heap_peak_mb = mb ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) in
  (* ---------------- metrics ---------------- *)
  let phases = closed_r :: open_r :: Option.to_list (Option.map fst traced_closed) in
  let attempted = List.fold_left (fun a (r : Loadgen.result) -> a + r.attempted) 0 phases in
  let failed = List.fold_left (fun a (r : Loadgen.result) -> a + r.failed) 0 phases in
  let mismatches =
    List.concat_map (fun (r : Loadgen.result) -> r.first_mismatch) phases @ sweep_first
  in
  let n_mismatch =
    List.fold_left (fun a (r : Loadgen.result) -> a + r.mismatches) 0 phases + sweep_errors
  in
  let ops_done = List.fold_left (fun a (r : Loadgen.result) -> a + r.completed) 0 phases in
  let lat i = Loadgen.Floats.to_array open_r.lat.(i) in
  let p arr q = Pct.percentile arr q in
  (* Open-loop medians: the median of the per-slice medians. *)
  let p50 i =
    Pct.windowed ~windows:7 (lat i) ~due:(Loadgen.Floats.to_array open_r.due.(i)) 50.0
  in
  (* A p99 needs ten samples beyond it; with fewer it reads 0. *)
  let p99 arr =
    if Array.length arr < Pct.min_samples_p99 then 0.0 else p arr 99.0
  in
  let get_l = lat 0 and put_l = lat 1 and scan_l = lat 2 in
  let d_all = Io_stats.diff io2 io0 in
  let d_ph = Io_stats.diff io1 io0 in
  let dev_ph = Device.diff dev1 dev0 in
  let user = Io_stats.user_bytes d_all in
  let write_amp = per (Io_stats.store_bytes_written d_all) user in
  let space_amp = per live_bytes (Model.live_user_bytes m) in
  let e2e =
    Report.
      [
        m "throughput_ops_s" "1/s" throughput;
        m "put_p50_us" "us" (p50 1);
        m "write_amp" "ratio" write_amp;
        m "space_amp" "ratio" space_amp;
        m "heap_live_mb" "MiB" heap_live_mb;
        m "setup_s" "s" setup_s;
      ]
  in
  let open_svc i =
    if open_r.svc_n.(i) = 0 then 0.0
    else float_of_int open_r.svc_ns.(i) /. float_of_int open_r.svc_n.(i) /. 1e3
  in
  let call_us i =
    let n, ns = timer i in
    if n = 0 then 0.0 else float_of_int ns /. float_of_int n /. 1e3
  in
  let windows = Io_stats.group_commit_count srv_io in
  let window_us = per (Io_stats.group_commit_ns srv_io) windows /. 1e3 in
  let puts_done = List.fold_left (fun a (r : Loadgen.result) -> a + r.svc_n.(1)) 0 phases in
  let ops_phase = max 1 ops_done in
  let rd = dev_ph.s_reads in
  let reads_in_ops = rd.(0) + rd.(1) + rd.(2) in
  let read_ns_all = Array.fold_left ( + ) 0 dev_ph.s_read_ns in
  let reads_all = Array.fold_left ( + ) 0 rd in
  let pg = probe.get_io and ps = probe.scan_io in
  let fetch_g = Io_stats.block_fetch_count pg and fetch_s = Io_stats.block_fetch_count ps in
  let data_g = probe.get_dev.s_data_reads.(0) and data_s = probe.scan_dev.s_data_reads.(1) in
  let bprobes = Io_stats.bloom_probe_count pg and bneg = Io_stats.bloom_negative_count pg in
  let gc_wait_us = Float.max 0.0 (window_us -. call_us 2) in
  let attribution =
    if trace then Tracer.attribute ~gc_wait_us (Tracer.collect ()) else []
  in
  let overhead_frac =
    match traced_closed with
    | Some (_, thr) when throughput > 0.0 -> (throughput -. thr) /. throughput
    | _ -> 0.0
  in
  let layer =
    Report.(
      [
        m "server.outside_store_us.get" "us" (Float.max 0.0 (open_svc 0 -. call_us 0));
        m "server.outside_store_us.put" "us" (Float.max 0.0 (open_svc 1 -. call_us 2));
        m "server.outside_store_us.scan" "us" (Float.max 0.0 (open_svc 2 -. call_us 1));
        m "group_commit.batches_per_window" "count"
          (per (Io_stats.group_commit_request_count srv_io) windows);
        m "group_commit.window_us" "us" window_us;
        m "sharded_store.get_us" "us" (call_us 0);
        m "sharded_store.scan_us" "us" (call_us 1);
        m "sharded_store.commit_us" "us" (call_us 2);
        m "sharded_store.stalls" "count" (float_of_int (Io_stats.stall_count d_ph));
        m "sharded_store.stall_ms" "ms" (Clock.ms_of_ns (Io_stats.stall_ns d_ph));
        m "sharded_store.refusals" "count" (float_of_int refusals);
        m "sharded_store.pool_cycles" "count" (float_of_int (cycles1 - cycles0));
        m "store.compactions" "count" (float_of_int (comps1 - comps0));
        m "store.splits" "count" (float_of_int (splits1 - splits0));
        m "store.buckets" "count" (float_of_int buckets);
        m "store.flush_mb" "MiB" (mb (Io_stats.written_by d_all Io_stats.Flush));
        m "store.compaction_write_mb" "MiB"
          (mb (sum_levels (fun io l -> Io_stats.written_by io (Io_stats.Compaction l)) d_all));
        m "store.compaction_read_mb" "MiB"
          (mb (sum_levels (fun io l -> Io_stats.read_by io (Io_stats.Compaction_read l)) d_all));
        m "store.split_write_mb" "MiB" (mb (Io_stats.written_by d_all Io_stats.Split));
        m "memtable.probes_per_get" "count" (per probe.memtable_probes probe.gets);
        m "memtable.sorted_bucket_frac" "ratio" sorted_frac;
        m "wal.fsyncs_per_put" "count" (per dev_ph.s_syncs puts_done);
        m "wal.bytes_per_put" "B" (per (Io_stats.written_by d_ph Io_stats.Wal) puts_done);
        m "storage.sync_calls" "count" (float_of_int dev_ph.s_syncs);
        m "storage.sync_ms" "ms" (Clock.ms_of_ns dev_ph.s_sync_ns);
        m "storage.write_mb" "MiB" (mb dev_ph.s_append_bytes);
        m "storage.append_us" "us" (per dev_ph.s_append_ns dev_ph.s_appends /. 1e3);
        m "storage.read_calls_per_op" "count" (per reads_in_ops ops_phase);
        m "storage.read_us" "us" (per read_ns_all reads_all /. 1e3);
        m "storage.scan_read_share" "ratio"
          (per dev_ph.s_read_ns.(1) (dev_ph.s_read_ns.(0) + dev_ph.s_read_ns.(1)));
        m "storage.retries" "count" (float_of_int (Io_stats.retry_count d_ph));
        m "storage.live_mb" "MiB" (mb live_bytes);
        m "block_cache.hit_ratio" "ratio"
          (1.0 -. per (data_g + data_s) (max 1 (fetch_g + fetch_s)));
        m "sstable.block_fetches_per_get" "count" (per fetch_g probe.gets);
        m "sstable.block_fetches_per_scan_entry" "count" (per fetch_s probe.entries);
        m "sstable.ph_probes_per_get" "count" (per (Io_stats.ph_probe_count pg) probe.gets);
        m "sstable.ph_false_hits" "count" (float_of_int (Io_stats.ph_false_hit_count d_ph));
        m "bloom.probes_per_get" "count" (per bprobes probe.gets);
        m "bloom.negative_frac" "ratio" (per bneg bprobes);
        m "bloom.fp_rate" "ratio" (Io_stats.bloom_fp_rate pg);
        m "sorted_view.rebuilds" "count" (float_of_int (Io_stats.view_rebuild_count d_ph));
        m "sorted_view.rebuild_ms" "ms" (Clock.ms_of_ns (Io_stats.view_rebuild_ns d_ph));
        m "gc.minor_words_per_op" "words"
          ((gc1.Gc.minor_words -. gc0.Gc.minor_words) /. float_of_int ops_phase);
        m "gc.major_collections" "count"
          (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
        m "gc.heap_peak_mb" "MiB" heap_peak_mb;
        m "loadgen.late_p50_us" "us" (p (Loadgen.Floats.to_array open_r.late) 50.0);
        m "loadgen.late_p99_us" "us" (p (Loadgen.Floats.to_array open_r.late) 99.0);
        m "loadgen.samples.get" "count" (float_of_int (Array.length get_l));
        m "loadgen.samples.put" "count" (float_of_int (Array.length put_l));
        m "loadgen.samples.scan" "count" (float_of_int (Array.length scan_l));
        m "failed_ops_frac" "ratio" (per failed (max 1 attempted));
        m "client.get_p50_us" "us" (p50 0);
        m "client.get_p99_us" "us" (p99 get_l);
        m "client.put_p99_us" "us" (p99 put_l);
        m "client.scan_p50_us" "us" (if scan_l = [||] then 0.0 else p50 2);
        m "client.scan_p99_us" "us" (p99 scan_l);
        m "data.table_mb" "MiB" (mb table_bytes);
        m "data.cache_mb" "MiB" (mb (Stack.shards * Stack.block_cache_bytes));
        m "data.table_to_cache" "ratio"
          (per table_bytes (Stack.shards * Stack.block_cache_bytes));
      ])
  in
  let traced =
    if not trace then []
    else
      Report.m "trace.overhead_frac" "ratio" overhead_frac
      :: List.concat_map
           (fun (a : Tracer.attribution) ->
             let o = Tracer.op_name a.op in
             Report.
               [
                 m ("self_us.client." ^ o) "us" a.client_us;
                 m ("self_us.server." ^ o) "us" a.server_us;
                 m ("self_us.group_commit." ^ o) "us" a.group_commit_us;
                 m ("self_us.sharded_store." ^ o) "us" a.sharded_store_us;
                 m ("self_us.storage." ^ o) "us" a.storage_us;
               ]
             @ Array.to_list
                 (Array.mapi
                    (fun i l -> Report.m (Printf.sprintf "self_p50_us.%s.%s" l o) "us" a.p50_us.(i))
                    Tracer.layers)
             @ Report.
               [
                 m ("trace.e2e_us." ^ o) "us" a.e2e_us;
                 m ("trace.residual_frac." ^ o) "ratio" a.residual_frac;
                 m ("trace.matched_frac." ^ o) "ratio" (per a.matched a.requests);
               ])
           attribution
  in
  let correct = n_mismatch = 0 in
  if trace then
    { correct; attempted; failed; metrics = layer @ traced; extra = e2e; mismatches }
  else { correct; attempted; failed; metrics = e2e; extra = layer; mismatches }

let usage () =
  prerr_endline
    "usage: main.exe --workload (ingest|point_hot|range_cold|all) --seed N \
     --seconds S --trace (0|1)";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 15.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_float seconds, "S");
      ("--trace", Arg.Set_int trace, "0|1");
    ]
    (fun _ -> usage ())
    "servebench";
  let targets =
    if !workload = "all" then List.concat_map (fun w -> [ (w, false); (w, true) ]) Workload.all
    else
      match Workload.of_name !workload with
      | Some w -> [ (w, !trace = 1) ]
      | None -> usage ()
  in
  let results =
    List.map
      (fun ((w : Workload.t), trace) ->
        Printf.eprintf "== %s (seed %d, %.0f s, trace %b)\n%!" w.name !seed !seconds trace;
        let o = run w ~seed:!seed ~seconds:!seconds ~trace in
        Report.table stderr (o.metrics @ o.extra);
        List.iter (Printf.eprintf "  MISMATCH %s\n") o.mismatches;
        Printf.eprintf "  correct=%b attempted=%d failed=%d\n%!" o.correct o.attempted o.failed;
        (w, trace, o))
      targets
  in
  let correct = List.for_all (fun (_, _, o) -> o.correct) results in
  let attempted = List.fold_left (fun a (_, _, o) -> a + o.attempted) 0 results in
  let failed = List.fold_left (fun a (_, _, o) -> a + o.failed) 0 results in
  let metrics =
    match results with
    | [ (_, _, o) ] -> o.metrics
    | _ ->
      List.concat_map
        (fun ((w : Workload.t), trace, o) ->
          List.map
            (fun (x : Report.metric) ->
              { x with Report.name = Printf.sprintf "%s.%s%s" w.name (if trace then "traced." else "") x.name })
            o.metrics)
        results
  in
  print_endline (Report.result_line ~correct ~attempted ~failed metrics);
  exit (if correct then 0 else 1)
