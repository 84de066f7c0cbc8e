type block = int

(* Doubly-linked LRU list threaded through arrays indexed by block number:
   [prev] points towards most-recently-used, [next] towards
   least-recently-used, and [-1] ends the list. *)
let absent = 0

let clean_entry = 1

let dirty_entry = 2

type t = {
  cap : int;
  mutable state : int array; (* absent, clean or dirty *)
  mutable prev : block array;
  mutable next : block array;
  mutable mru : block;
  mutable lru : block;
  mutable resident : int;
  mutable hit_count : int;
  mutable miss_count : int;
}

type eviction = { block : block; dirty : bool }

let create ~capacity =
  if capacity < 1 then invalid_arg "Cache.create: capacity must be positive";
  {
    cap = capacity;
    state = [||];
    prev = [||];
    next = [||];
    mru = -1;
    lru = -1;
    resident = 0;
    hit_count = 0;
    miss_count = 0;
  }

let state t block = Tandem_sim.Tbl.get t.state block absent

let unlink t block =
  let p = t.prev.(block) and n = t.next.(block) in
  if p >= 0 then t.next.(p) <- n else t.mru <- n;
  if n >= 0 then t.prev.(n) <- p else t.lru <- p

let push_front t block =
  t.next.(block) <- t.mru;
  t.prev.(block) <- -1;
  if t.mru >= 0 then t.prev.(t.mru) <- block;
  t.mru <- block;
  if t.lru < 0 then t.lru <- block

let remove t block =
  unlink t block;
  t.state.(block) <- absent;
  t.resident <- t.resident - 1

let touch t block =
  if state t block <> absent then begin
    t.hit_count <- t.hit_count + 1;
    unlink t block;
    push_front t block;
    `Hit
  end
  else begin
    t.miss_count <- t.miss_count + 1;
    let evicted =
      if t.resident >= t.cap && t.lru >= 0 then begin
        let victim = t.lru in
        let dirty = t.state.(victim) = dirty_entry in
        remove t victim;
        Some { block = victim; dirty }
      end
      else None
    in
    t.state <- Tandem_sim.Tbl.cover t.state block absent;
    t.prev <- Tandem_sim.Tbl.cover t.prev block (-1);
    t.next <- Tandem_sim.Tbl.cover t.next block (-1);
    t.state.(block) <- clean_entry;
    t.resident <- t.resident + 1;
    push_front t block;
    `Miss evicted
  end

let mark_dirty t block =
  if state t block = absent then
    invalid_arg "Cache.mark_dirty: block not resident";
  t.state.(block) <- dirty_entry

let clean t block = if state t block <> absent then t.state.(block) <- clean_entry

let is_dirty t block = state t block = dirty_entry

(* Walks the resident list, not the whole block range. *)
let dirty_blocks t =
  let rec collect block acc =
    if block < 0 then acc
    else collect t.next.(block) (if is_dirty t block then block :: acc else acc)
  in
  List.sort Int.compare (collect t.mru [])

let drop t block = if state t block <> absent then remove t block

let clear t =
  Array.fill t.state 0 (Array.length t.state) absent;
  t.mru <- -1;
  t.lru <- -1;
  t.resident <- 0

let hits t = t.hit_count

let misses t = t.miss_count
