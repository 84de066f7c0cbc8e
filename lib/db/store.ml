open Tandem_disk
module Tbl = Tandem_sim.Tbl

(* The current and on-disc images, indexed by block number (always the same
   length); [absent], compared physically, marks a block not there. *)
let absent = Block_content.Entry_segment { base_entry = -1; entries = [||] }

type t = {
  volume : Volume.t;
  cache : Cache.t;
  mutable current : Block_content.t array;
  mutable disk : Block_content.t array;
  mutable next_block : int;
  mutable charging : bool;
}

let create volume ~cache_capacity =
  {
    volume;
    cache = Cache.create ~capacity:cache_capacity;
    current = [||];
    disk = [||];
    next_block = 0;
    charging = true;
  }

let volume t = t.volume

let set_charging t flag = t.charging <- flag

let find t block = Tbl.get t.current block absent

let set t block content =
  t.current <- Tbl.cover t.current block absent;
  t.disk <- Tbl.cover t.disk block absent;
  t.current.(block) <- content

let flush_block t block =
  let content = find t block in
  if content != absent then begin
    t.disk.(block) <- content;
    Cache.clean t.cache block
  end

let handle_eviction t = function
  | Some { Cache.block; dirty } when dirty ->
      if t.charging then Volume.write_block t.volume block;
      flush_block t block
  | Some _ | None -> ()

(* Cache and dirty bookkeeping always runs (crash semantics must hold even
   during uncharged setup); [charging] only controls physical I/O and the
   fiber sleeps it implies. *)
let touch_for_read t block =
  match Cache.touch t.cache block with
  | `Hit -> ()
  | `Miss evicted ->
      handle_eviction t evicted;
      if t.charging then Volume.read_block t.volume block

let touch_for_write t block =
  (match Cache.touch t.cache block with
  | `Hit -> ()
  | `Miss evicted ->
      (* A whole-block write needs no physical read first. *)
      handle_eviction t evicted);
  Cache.mark_dirty t.cache block

let alloc t content =
  let block = t.next_block in
  t.next_block <- t.next_block + 1;
  set t block content;
  touch_for_write t block;
  block

let read t block =
  if find t block == absent then raise Not_found;
  touch_for_read t block;
  (* Fetch after the touch: the physical read may have suspended the fiber,
     and the block may have been rewritten meanwhile. *)
  let content = find t block in
  if content == absent then raise Not_found;
  content

let write t block content =
  if find t block == absent then invalid_arg "Store.write: unallocated block";
  t.current.(block) <- content;
  touch_for_write t block

let free t block =
  if block >= 0 && block < Array.length t.current then begin
    t.current.(block) <- absent;
    t.disk.(block) <- absent
  end;
  Cache.drop t.cache block

let flush_all t =
  (* Writes performed while charging was off bypass the cache entirely; a
     setup phase must end with [overwrite_disk_image], not [flush_all]. *)
  List.iter
    (fun block ->
      if t.charging then Volume.write_block t.volume block;
      flush_block t block)
    (Cache.dirty_blocks t.cache)

let crash t =
  t.current <- Array.copy t.disk;
  Cache.clear t.cache

let overwrite_disk_image t =
  t.disk <- Array.copy t.current;
  Cache.clear t.cache

let cache_hits t = Cache.hits t.cache

let cache_misses t = Cache.misses t.cache

(* Index order is block order. *)
let snapshot t =
  List.filter (fun (_, content) -> content != absent)
    (List.mapi (fun block content -> (block, content)) (Array.to_list t.current))

let restore t blocks =
  Array.fill t.current 0 (Array.length t.current) absent;
  Cache.clear t.cache;
  List.iter
    (fun (block, content) ->
      set t block content;
      t.next_block <- max t.next_block (block + 1))
    blocks
