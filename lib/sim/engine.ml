(* The event queue: the simulator's per-event hot path. Every message,
   timer, disc completion and fiber wake-up is one event, 78–105 per
   committed transaction, so it indexes instead of chasing pointers:

   - a slab of slots, one per queued event: the action and a stamp
     (generation * 4 + state); freed slots go on an [int] freelist, so
     scheduling allocates only the caller's closure (and a 4-word handle
     for the cancellable variants);
   - a binary min-heap of the events in three [int array]s (time, seq,
     slot): sifting moves integers, with no write barrier and no pointer
     followed per comparison.

   Events execute in strictly increasing (time, seq) order, seq being
   scheduling order, so events at one instant run FIFO. The chaos
   fingerprints and the reference scheduler in test/test_sim.ml referee.

   A handle holds its slot's stamp; freeing bumps the generation and
   cancelling sets the dead state, so [cancel] acts only while the stamp
   matches and a stale handle never touches a later occupant. A cancelled
   event stays queued as a tombstone until popped; tombstones are also
   purged in bulk (filter + Floyd heapify) once they outnumber live
   events, so mass timer cancellation cannot bloat the heap. *)

(* The state in a stamp's low two bits. *)
let queued = 1
let dead = 3

let noop () = ()

type t = {
  mutable clock : Sim_time.t;
  mutable actions : (unit -> unit) array; (* slab, by slot *)
  mutable stamps : int array;
  mutable free : int array; (* freelist stack of slots in [0, free_size) *)
  mutable free_size : int;
  mutable h_time : int array; (* binary min-heap in [0, size) *)
  mutable h_seq : int array;
  mutable h_slot : int array;
  mutable size : int;
  mutable dead_count : int; (* tombstones in the heap *)
  mutable next_seq : int;
  mutable next_fiber_id : int; (* per-engine fiber ids; see Fiber.spawn *)
  root_rng : Rng.t;
  mutable executed : int;
  mutable cancelled : int; (* cumulative, surfaced as sim.events_cancelled *)
}

type handle = { engine : t; slot : int; stamp : int }

let create ?(seed = 42) () =
  {
    clock = Sim_time.zero;
    actions = [||];
    stamps = [||];
    free = [||];
    free_size = 0;
    h_time = Array.make 256 0;
    h_seq = Array.make 256 0;
    h_slot = Array.make 256 0;
    size = 0;
    dead_count = 0;
    next_seq = 0;
    next_fiber_id = 0;
    root_rng = Rng.create ~seed;
    executed = 0;
    cancelled = 0;
  }

let now t = t.clock

let alloc_fiber_id t =
  t.next_fiber_id <- t.next_fiber_id + 1;
  t.next_fiber_id

let rng t = t.root_rng

let alloc t action =
  if t.free_size = 0 then begin
    (* Every slot is queued: double the slab, and the new slots become the
       freelist, lowest on top. *)
    let old = Array.length t.stamps in
    let n = max 256 (2 * old) in
    t.actions <- Tbl.cover t.actions (n - 1) noop;
    t.stamps <- Tbl.cover t.stamps (n - 1) 0;
    t.free <- Array.init n (fun k -> n - 1 - k);
    t.free_size <- n - old
  end;
  t.free_size <- t.free_size - 1;
  let slot = t.free.(t.free_size) in
  t.actions.(slot) <- action;
  t.stamps.(slot) <- t.stamps.(slot) + queued;
  slot

(* Bump the generation and clear the state; dropping the action lets the
   closure be collected. *)
let release t slot =
  t.stamps.(slot) <- (t.stamps.(slot) lor 3) + 1;
  t.actions.(slot) <- noop;
  t.free.(t.free_size) <- slot;
  t.free_size <- t.free_size + 1

(* Move the hole at [i] down until (time, seq, slot) fits there. Indices
   stay below [size], within every heap array: unchecked access. *)
let sift_down t i time seq slot =
  let h_time = t.h_time and h_seq = t.h_seq and h_slot = t.h_slot in
  let n = t.size in
  let i = ref i in
  let continue = ref true in
  while !continue do
    let left = (2 * !i) + 1 in
    if left >= n then continue := false
    else begin
      let right = left + 1 in
      let l_time = Array.unsafe_get h_time left in
      let child =
        if right < n then begin
          let r_time = Array.unsafe_get h_time right in
          if
            r_time < l_time
            || r_time = l_time
               && Array.unsafe_get h_seq right < Array.unsafe_get h_seq left
          then right
          else left
        end
        else left
      in
      let c_time = Array.unsafe_get h_time child in
      let c_seq = Array.unsafe_get h_seq child in
      if c_time < time || (c_time = time && c_seq < seq) then begin
        Array.unsafe_set h_time !i c_time;
        Array.unsafe_set h_seq !i c_seq;
        Array.unsafe_set h_slot !i (Array.unsafe_get h_slot child);
        i := child
      end
      else continue := false
    end
  done;
  Array.unsafe_set h_time !i time;
  Array.unsafe_set h_seq !i seq;
  Array.unsafe_set h_slot !i slot

(* [seq] is the largest in the heap, so only an earlier time moves it up. *)
let heap_add t time seq slot =
  if t.size = Array.length t.h_time then begin
    t.h_time <- Tbl.cover t.h_time t.size 0;
    t.h_seq <- Tbl.cover t.h_seq t.size 0;
    t.h_slot <- Tbl.cover t.h_slot t.size 0
  end;
  let h_time = t.h_time and h_seq = t.h_seq and h_slot = t.h_slot in
  let i = ref t.size in
  t.size <- t.size + 1;
  while !i > 0 && time < Array.unsafe_get h_time ((!i - 1) / 2) do
    let parent = (!i - 1) / 2 in
    Array.unsafe_set h_time !i (Array.unsafe_get h_time parent);
    Array.unsafe_set h_seq !i (Array.unsafe_get h_seq parent);
    Array.unsafe_set h_slot !i (Array.unsafe_get h_slot parent);
    i := parent
  done;
  Array.unsafe_set h_time !i time;
  Array.unsafe_set h_seq !i seq;
  Array.unsafe_set h_slot !i slot

let remove_top t =
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then sift_down t 0 t.h_time.(last) t.h_seq.(last) t.h_slot.(last)

(* Drop every tombstone in one pass and rebuild the heap bottom-up
   (Floyd): O(n), amortized O(1) per cancellation since it only runs when
   tombstones outnumber live events. Pop order depends only on
   (time, seq), so the layout is unobservable. *)
let purge t =
  let kept = ref 0 in
  for i = 0 to t.size - 1 do
    let slot = t.h_slot.(i) in
    if t.stamps.(slot) land 3 = queued then begin
      t.h_time.(!kept) <- t.h_time.(i);
      t.h_seq.(!kept) <- t.h_seq.(i);
      t.h_slot.(!kept) <- slot;
      incr kept
    end
    else release t slot
  done;
  t.size <- !kept;
  t.dead_count <- 0;
  for i = (t.size / 2) - 1 downto 0 do
    sift_down t i t.h_time.(i) t.h_seq.(i) t.h_slot.(i)
  done

let enqueue t time action =
  if time < t.clock then invalid_arg "Engine.schedule_at: time is in the past";
  let slot = alloc t action in
  t.next_seq <- t.next_seq + 1;
  heap_add t time t.next_seq slot;
  slot

let post_at t time action = ignore (enqueue t time action)

let post_after t span action =
  if span < 0 then invalid_arg "Engine.schedule_after: negative span";
  post_at t (Sim_time.add t.clock span) action

let schedule_at t time action =
  let slot = enqueue t time action in
  { engine = t; slot; stamp = t.stamps.(slot) }

let schedule_after t span action =
  if span < 0 then invalid_arg "Engine.schedule_after: negative span";
  schedule_at t (Sim_time.add t.clock span) action

(* A changed stamp means the event fired, was reaped or is already
   cancelled, and the slot may have a new occupant: no-op. *)
let cancel { engine = t; slot; stamp } =
  if t.stamps.(slot) = stamp then begin
    t.stamps.(slot) <- stamp lor dead;
    t.cancelled <- t.cancelled + 1;
    t.dead_count <- t.dead_count + 1;
    (* Purge when tombstones dominate: keeps heap operations O(log live)
       and memory O(live). The 64 floor avoids thrashing tiny heaps. *)
    if t.dead_count > 64 && t.dead_count * 2 > t.size then purge t
  end

(* Dequeue the next live event due by [limit], advancing the clock to its
   time, and return its slot, or -1 if there is none. Tombstones on the
   way are reaped without advancing the clock: a cancelled timeout never
   happened. *)
let rec take t limit =
  if t.size = 0 || t.h_time.(0) > limit then -1
  else begin
    let slot = t.h_slot.(0) and time = t.h_time.(0) in
    remove_top t;
    if t.stamps.(slot) land 3 = queued then begin
      t.clock <- time;
      slot
    end
    else begin
      t.dead_count <- t.dead_count - 1;
      release t slot;
      take t limit
    end
  end

let fire t slot =
  t.executed <- t.executed + 1;
  let action = t.actions.(slot) in
  release t slot;
  action ()

let step t =
  let slot = take t max_int in
  slot >= 0 && (fire t slot; true)

let run ?until t =
  let limit = match until with None -> max_int | Some l -> l in
  let slot = ref (take t limit) in
  while !slot >= 0 do
    fire t !slot;
    slot := take t limit
  done;
  match until with
  | Some limit when Sim_time.compare t.clock limit < 0 -> t.clock <- limit
  | Some _ | None -> ()

let run_for t span = run ~until:(Sim_time.add t.clock span) t

let pending t = t.size - t.dead_count

let events_executed t = t.executed

let events_cancelled t = t.cancelled
