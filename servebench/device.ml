(* The benchmark's device: [Env.in_memory] behind an [Env.custom] wrapper
   that adds a fixed modelled latency to every [sync] and times every
   append, sync and read with the monotonic clock.

   Reads are attributed to the store call running on the calling domain
   (get, scan or commit, set by the benchmark's [store_ops] closures;
   anything else — the compaction pool, setup — is "other"), and split into
   data-block reads and table-metadata reads: on opening a table the
   wrapper decodes its footer to learn where the data blocks end. *)

module Env = Wip_storage.Env
module Io_stats = Wip_storage.Io_stats
module Table_format = Wip_sstable.Table_format

(* The same device figure the service-layer benchmark models. *)
let sync_ns = 150_000

type ctx = Ctx_get | Ctx_scan | Ctx_commit | Ctx_other

let ctx_index = function
  | Ctx_get -> 0
  | Ctx_scan -> 1
  | Ctx_commit -> 2
  | Ctx_other -> 3

let ctx_key = Domain.DLS.new_key (fun () -> Ctx_other)

let set_ctx c = Domain.DLS.set ctx_key c

type counters = {
  appends : int Atomic.t;
  append_bytes : int Atomic.t;
  append_ns : int Atomic.t;
  syncs : int Atomic.t;
  sync_ns_total : int Atomic.t;
  reads : int Atomic.t array;  (** all device reads, per ctx *)
  data_reads : int Atomic.t array;  (** data-block reads, per ctx *)
  read_ns : int Atomic.t array;  (** time in device reads, per ctx *)
}

type t = { env : Env.t; c : counters }

let make_counters () =
  let a () = Atomic.make 0 in
  {
    appends = a ();
    append_bytes = a ();
    append_ns = a ();
    syncs = a ();
    sync_ns_total = a ();
    reads = Array.init 4 (fun _ -> a ());
    data_reads = Array.init 4 (fun _ -> a ());
    read_ns = Array.init 4 (fun _ -> a ());
  }

let add a n = ignore (Atomic.fetch_and_add a n)

(* Where a table's data blocks end (its filter block starts), decoded from
   the footer through the inner reader, so these reads bypass the wrapper's
   counters. 0 for files that are not tables. *)
let data_end name r =
  if not (Filename.check_suffix name ".lvt") then 0
  else
    let size = Env.file_size r in
    let cat = Io_stats.Table_meta in
    try
      let tail = Env.read r ~category:cat ~pos:(size - 4) ~len:4 in
      let flen = Wip_util.Coding.get_fixed32 tail 0 in
      let f =
        Table_format.decode_footer
          (Env.read r ~category:cat ~pos:(size - flen) ~len:flen)
      in
      f.Table_format.filter.offset
    with Invalid_argument _ -> 0

let create () =
  let inner = Env.in_memory () in
  let c = make_counters () in
  let timed kind f =
    let t0 = Clock.now_ns () in
    let r = f () in
    let t1 = Clock.now_ns () in
    Tracer.record kind ~start:t0 ~stop:t1 ();
    (r, t1 - t0)
  in
  let c_create name =
    let w = Env.create_file inner name in
    {
      Env.cw_append =
        (fun s ->
          let (), dt =
            timed Tracer.Dev_append (fun () ->
                Env.append w ~category:Io_stats.User_write s)
          in
          add c.appends 1;
          add c.append_bytes (String.length s);
          add c.append_ns dt);
      cw_sync =
        (fun () ->
          let (), dt =
            timed Tracer.Dev_sync (fun () ->
                Clock.sleep_until (Clock.now_ns () + sync_ns))
          in
          add c.syncs 1;
          add c.sync_ns_total dt);
      cw_close = (fun () -> Env.close_writer w);
    }
  in
  let c_open name =
    let r = Env.open_file inner name in
    let data_end = data_end name r in
    {
      Env.cr_size = Env.file_size r;
      cr_read =
        (fun ~pos ~len ->
          let s, dt =
            timed Tracer.Dev_read (fun () ->
                Env.read r ~category:Io_stats.Read_path ~pos ~len)
          in
          let i = ctx_index (Domain.DLS.get ctx_key) in
          add c.reads.(i) 1;
          if pos < data_end then add c.data_reads.(i) 1;
          add c.read_ns.(i) dt;
          s);
      cr_close = (fun () -> Env.close_reader r);
    }
  in
  let env =
    Env.custom
      {
        Env.c_create;
        c_open;
        c_exists = Env.exists inner;
        c_delete = Env.delete inner;
        c_rename = (fun ~src ~dst -> Env.rename inner ~src ~dst);
        c_list = (fun () -> Env.list_files inner);
        c_live_bytes = (fun () -> Env.total_live_bytes inner);
      }
  in
  { env; c }

(* A plain-int copy of the counters, for deltas across a phase. *)
type snapshot = {
  s_appends : int;
  s_append_bytes : int;
  s_append_ns : int;
  s_syncs : int;
  s_sync_ns : int;
  s_reads : int array;
  s_data_reads : int array;
  s_read_ns : int array;
}

let snapshot t =
  let g = Atomic.get in
  let ga = Array.map g in
  {
    s_appends = g t.c.appends;
    s_append_bytes = g t.c.append_bytes;
    s_append_ns = g t.c.append_ns;
    s_syncs = g t.c.syncs;
    s_sync_ns = g t.c.sync_ns_total;
    s_reads = ga t.c.reads;
    s_data_reads = ga t.c.data_reads;
    s_read_ns = ga t.c.read_ns;
  }

let diff a b =
  let da = Array.map2 ( - ) in
  {
    s_appends = a.s_appends - b.s_appends;
    s_append_bytes = a.s_append_bytes - b.s_append_bytes;
    s_append_ns = a.s_append_ns - b.s_append_ns;
    s_syncs = a.s_syncs - b.s_syncs;
    s_sync_ns = a.s_sync_ns - b.s_sync_ns;
    s_reads = da a.s_reads b.s_reads;
    s_data_reads = da a.s_data_reads b.s_data_reads;
    s_read_ns = da a.s_read_ns b.s_read_ns;
  }
