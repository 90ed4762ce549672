(* The served stack under test, as `wipdb_cli serve` builds it: a
   Server with group commit on, over a 4-shard Sharded_store with a
   1-thread compaction pool, over WipDB stores on the benchmark's timed
   device. The store_ops closures handed to the server time every call
   into the sharded store (and open a trace span around it). *)

module Config = Wipdb.Config
module Store = Wipdb.Store
module Sharded = Wip_concurrent.Sharded_store.Make (Wipdb.Store)
module Server = Wip_server.Server
module Io_stats = Wip_storage.Io_stats
module Ikey = Wip_util.Ikey

let shards = 4

(* Sized to a 2-core machine: one server worker per core and one pool
   thread. *)
let workers = 2

let pool_threads = 1

let block_cache_bytes = 512 * 1024

(* One Config for all three workloads. Small memtables and buckets so the
   pool flushes, compacts and splits within a run of a few seconds. *)
let config =
  {
    Config.default with
    Config.name = "bench";
    compaction_budget_per_batch = 0;
    memtable_items = 1024;
    memtable_bytes = 32 * 1024;
    initial_buckets = shards;
    block_cache_bytes;
  }

(* Per-op-type timers of the store_ops closures: calls, ns inside the
   sharded store, and refused commit verdicts. *)
type timers = {
  calls : int Atomic.t array;  (** get, scan, commit *)
  ns : int Atomic.t array;
  refusals : int Atomic.t;
}

let make_timers () =
  {
    calls = Array.init 3 (fun _ -> Atomic.make 0);
    ns = Array.init 3 (fun _ -> Atomic.make 0);
    refusals = Atomic.make 0;
  }

let reset_timers t =
  Array.iter (fun a -> Atomic.set a 0) t.calls;
  Array.iter (fun a -> Atomic.set a 0) t.ns;
  Atomic.set t.refusals 0

type t = {
  dev : Device.t;
  st : Sharded.t;
  srv : Server.t;
  server_stats : Io_stats.t;  (** the group-commit window counters *)
  timers : timers;
}

let stats t = Wip_storage.Env.stats t.dev.Device.env

(* Run [f] as a timed call of type [i] into the sharded store. *)
let timed t i ctx kind ?req ?keys f =
  Device.set_ctx ctx;
  let t0 = Clock.now_ns () in
  let tok = Tracer.enter kind ?req ?keys t0 in
  let r = f () in
  let t1 = Clock.now_ns () in
  Tracer.leave tok t1;
  Device.set_ctx Device.Ctx_other;
  ignore (Atomic.fetch_and_add t.calls.(i) 1);
  ignore (Atomic.fetch_and_add t.ns.(i) (t1 - t0));
  r

let store_ops st timers =
  let batch_key = function (_, k, _) :: _ -> k | [] -> "" in
  {
    Server.get =
      (fun key ->
        timed timers 0 Device.Ctx_get Tracer.Store_get ~req:key (fun () ->
            Sharded.get st key));
    scan =
      (fun ~lo ~hi ~limit ->
        timed timers 1 Device.Ctx_scan Tracer.Store_scan ~req:lo (fun () ->
            Sharded.scan st ~lo ~hi ?limit ()));
    commit =
      (fun batches ->
        let keys = if !Tracer.enabled then Array.map batch_key batches else [||] in
        let verdicts =
          timed timers 2 Device.Ctx_commit Tracer.Store_commit ~keys (fun () ->
              Sharded.commit_batches st batches)
        in
        Array.iter
          (function
            | Ok () -> () | Error _ -> ignore (Atomic.fetch_and_add timers.refusals 1))
          verdicts;
        verdicts);
    stats = (fun () -> []);
  }

let create () =
  let dev = Device.create () in
  let bounds = Config.shard_boundaries config ~shards in
  let stores =
    List.mapi
      (fun i lo ->
        let cfg = { config with Config.name = Printf.sprintf "bench.shard-%d" i } in
        (lo, Store.create ~env:dev.Device.env cfg))
      bounds
  in
  let st = Sharded.create ~pool_threads stores in
  let timers = make_timers () in
  let server_stats = Io_stats.create () in
  let srv =
    Server.start ~workers ~group_commit:true ~stats:server_stats
      ~ops:(store_ops st timers) ()
  in
  { dev; st; srv; server_stats; timers }

(* Wait (bounded) until the compaction pool reports no pending work. *)
let wait_pool_idle ?(timeout_s = 5.0) t =
  let deadline = Clock.now_ns () + int_of_float (timeout_s *. 1e9) in
  while Sharded.maintenance_pending t.st > 0 && Clock.now_ns () < deadline do
    Unix.sleepf 0.002
  done

(* Bring the store to rest: flush every memtable and run maintenance to
   quiescence in the foreground, then let the pool settle. *)
let quiesce t =
  Sharded.flush t.st;
  Sharded.maintenance t.st ();
  wait_pool_idle t

(* Write [slots] through the sharded store in key order, in batches; a
   refused batch is retried after foreground maintenance. *)
let preload t (model : Model.t) slots =
  let batch = ref [] and n = ref 0 in
  let commit () =
    let items = List.rev !batch in
    let rec go () =
      match Sharded.try_write_batch t.st items with
      | Ok () -> ()
      | Error _ ->
        Sharded.maintenance t.st ~budget_bytes:(1 lsl 20) ();
        go ()
    in
    if items <> [] then go ();
    batch := [];
    n := 0
  in
  List.iter
    (fun slot ->
      let k = Model.key model.Model.ks slot in
      let v = Model.make_value k ~writer:Model.preload_writer ~version:0 in
      batch := (Ikey.Value, k, v) :: !batch;
      incr n;
      Model.preload model slot;
      if !n >= 256 then commit ())
    slots;
  commit ()

let stop t =
  Server.stop t.srv;
  Sharded.stop t.st

(* Sum of a per-store figure over every shard. *)
let sum_shards t f = Sharded.fold_shards t.st ~init:0 ~f:(fun acc s -> acc + f s)
