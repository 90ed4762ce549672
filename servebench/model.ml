(* Keys, values and the reference model every response is checked against.

   A workload's keys are [slots] positions spread evenly over the engine's
   numeric key space (so every shard gets its share); slot [i] is written
   at position [i * stride], and position [i * stride + 1] is a key that is
   never written (the "absent" keys point reads probe). Connection [c] owns
   the slots with [i mod conns = c] and is their only writer.

   A value encodes its key, its writer and a per-writer version, padded to
   [value_bytes] with filler derived from all three, so a value is either
   exactly right for its key and version or detectably wrong. *)

module Key_codec = Wip_workload.Key_codec

let value_bytes = 100

(* Config.default's initial_key_space: shard and bucket boundaries are laid
   out over it. *)
let space = 1_000_000_000L

let preload_writer = 99

type keys = { slots : int; stride : int64 }

let keys slots = { slots; stride = Int64.div space (Int64.of_int slots) }

let key ks slot = Key_codec.encode (Int64.mul (Int64.of_int slot) ks.stride)

let absent_key ks slot =
  Key_codec.encode (Int64.add (Int64.mul (Int64.of_int slot) ks.stride) 1L)

let slot_of_key ks k =
  match Key_codec.decode k with
  | exception Invalid_argument _ -> None
  | pos ->
    if Int64.rem pos ks.stride = 0L then
      let s = Int64.to_int (Int64.div pos ks.stride) in
      if s < ks.slots then Some s else None
    else None

let make_value key ~writer ~version =
  let head = Printf.sprintf "%s|%02d|%010d|" key writer version in
  let h = Hashtbl.hash (key, writer, version) in
  String.init value_bytes (fun i ->
      if i < String.length head then head.[i]
      else Char.chr (97 + ((h + i) mod 26)))

(* [Some (writer, version)] when [v] is exactly the value [key] would have
   at that writer and version. *)
let parse_value key v =
  let kl = String.length key in
  if String.length v <> value_bytes || String.length v < kl + 16 then None
  else if String.sub v 0 kl <> key then None
  else
    match
      ( int_of_string_opt (String.sub v (kl + 1) 2),
        int_of_string_opt (String.sub v (kl + 4) 10) )
    with
    | Some writer, Some version
      when String.equal v (make_value key ~writer ~version) ->
      Some (writer, version)
    | _ -> None

(* ------------------------------------------------------------------ *)
(* Reference model *)

type t = {
  ks : keys;
  conns : int;
  acked : int array;
      (** per slot: the highest acknowledged version, -1 when never written.
          Written only by the slot's owner connection; read by any. *)
  sent : int array;
      (** per slot: the highest version ever sent, -1 when never written *)
}

let create ks ~conns =
  { ks; conns; acked = Array.make ks.slots (-1); sent = Array.make ks.slots (-1) }

let owner m slot = slot mod m.conns

(* A preloaded slot holds version 0 from the preload writer. *)
let preload m slot =
  m.acked.(slot) <- 0;
  m.sent.(slot) <- 0

let note_sent m slot version =
  if version > m.sent.(slot) then m.sent.(slot) <- version

let note_acked m slot version =
  if version > m.acked.(slot) then m.acked.(slot) <- version

let expected_writer m slot version =
  if version = 0 then preload_writer else owner m slot

(* A value read for [slot]: well formed, from the slot's writer, no older
   than [floor] (the last ack seen before the read was sent), and no newer
   than anything ever sent. *)
let check_value m slot ~floor v =
  let k = key m.ks slot in
  match parse_value k v with
  | None -> Error (Printf.sprintf "malformed value for %s" k)
  | Some (writer, version) ->
    if writer <> expected_writer m slot version then
      Error (Printf.sprintf "%s: version %d from wrong writer %d" k version writer)
    else if version < floor then
      Error
        (Printf.sprintf "%s: stale version %d, acked %d before the read" k
           version floor)
    else if version > m.sent.(slot) then
      Error (Printf.sprintf "%s: version %d was never written" k version)
    else Ok ()

let check_get m ~slot ~absent ~floor result =
  match (result, absent) with
  | None, true -> Ok ()
  | Some _, true ->
    Error (Printf.sprintf "absent key %s returned a value" (absent_key m.ks slot))
  | None, false ->
    if floor < 0 then Ok ()
    else
      Error
        (Printf.sprintf "%s: not found, acked version %d" (key m.ks slot) floor)
  | Some v, false -> check_value m slot ~floor:(max floor 0) v

let check_scan m ~lo ~hi ~limit entries =
  let rec go prev n = function
    | [] -> if n > limit then Error (Printf.sprintf "scan returned %d > limit %d" n limit) else Ok ()
    | (k, v) :: rest -> (
      if String.compare k lo < 0 || String.compare k hi >= 0 then
        Error (Printf.sprintf "scan key %s outside [%s, %s)" k lo hi)
      else if (match prev with Some p -> String.compare p k >= 0 | None -> false)
      then Error (Printf.sprintf "scan not ascending at %s" k)
      else
        match slot_of_key m.ks k with
        | None -> Error (Printf.sprintf "scan returned unknown key %s" k)
        | Some slot -> (
          if m.sent.(slot) < 0 then
            Error (Printf.sprintf "scan returned never-written key %s" k)
          else
            match check_value m slot ~floor:0 v with
            | Error _ as e -> e
            | Ok () -> go (Some k) (n + 1) rest))
  in
  go None 0 entries

(* The final sweep over the whole store, in key order: every acked write
   reads back at its acked version (or a later one that was sent), and
   nothing else is present. Returns the number of mismatches and the first
   few descriptions. *)
let check_sweep m entries =
  let errors = ref 0 and first = ref [] in
  let fail msg =
    incr errors;
    if List.length !first < 5 then first := msg :: !first
  in
  let seen = Array.make m.ks.slots false in
  List.iter
    (fun (k, v) ->
      match slot_of_key m.ks k with
      | None -> fail (Printf.sprintf "unknown key %s in store" k)
      | Some slot ->
        seen.(slot) <- true;
        if m.sent.(slot) < 0 then fail (Printf.sprintf "never-written key %s in store" k)
        else (
          match check_value m slot ~floor:(max 0 m.acked.(slot)) v with
          | Ok () -> ()
          | Error e -> fail e))
    entries;
  Array.iteri
    (fun slot a ->
      if a >= 0 && not seen.(slot) then
        fail (Printf.sprintf "acked write lost: %s (version %d)" (key m.ks slot) a))
    m.acked;
  (!errors, List.rev !first)

(* User bytes the model says are live: key + value of every acked slot. *)
let live_user_bytes m =
  Array.fold_left
    (fun acc a -> if a >= 0 then acc + Key_codec.key_bytes + value_bytes else acc)
    0 m.acked
