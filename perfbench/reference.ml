(* A fixed reference workload that measures the host's current speed.

   The host this benchmark was developed on (a 2-vCPU VM) runs the same
   code up to 1.5 times slower for minutes at a time, with no steal time
   reported. A timed span is therefore paired with short bursts of this
   fixed code, and its wall time is also reported scaled by the bursts'
   nominal time over their measured time: the host seconds the span would
   have taken at the reference speed.

   A burst imitates what the simulator spends its time on — streaming
   fresh writes through a buffer the size of the minor heap, hashing, and
   updating a small table — without allocating on the OCaml heap. That
   matters: a burst that allocated would absorb the garbage collector's
   work on the program's heap, so a program that made more garbage would
   look faster once scaled (measured: with 6x the major GC work, the run
   was 17% slower and the scaled time of an allocating burst 5% faster). *)

let ops = 3000
let mask = (1 lsl 18) - 1 (* 2 MB of ints, the default minor heap size *)
let ring = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (mask + 1)
let table = Array.make 256 0
let position = ref 0

let burst () =
  let p = ref !position in
  for i = 1 to ops do
    for k = 0 to 9 do
      Bigarray.Array1.unsafe_set ring ((!p + k) land mask) (i + k)
    done;
    p := !p + 10;
    let h = Hashtbl.hash i land 255 in
    Array.unsafe_set table h
      (Array.unsafe_get table h + Bigarray.Array1.unsafe_get ring ((!p - 5) land mask))
  done;
  position := !p

(* Wall seconds of one burst on the development host when it was quiet. *)
let nominal_burst_s = 0.0001

type tally = { mutable bursts : int; mutable seconds : float }

(* Set while a burst runs, so a profiler can leave bursts out. *)
let in_burst = ref false

let timed_burst t =
  in_burst := true;
  let start = Unix.gettimeofday () in
  burst ();
  t.seconds <- t.seconds +. (Unix.gettimeofday () -. start);
  in_burst := false;
  t.bursts <- t.bursts + 1

(* Nominal over measured burst time: above 1 when the host is fast. *)
let speed t = float_of_int t.bursts *. nominal_burst_s /. t.seconds

(* Speed factor of [n] bursts run now, after one untimed burst that brings
   the buffer back into the caches. *)
let speed_now n =
  burst ();
  let t = { bursts = 0; seconds = 0.0 } in
  for _ = 1 to n do
    timed_burst t
  done;
  speed t

(* Run [f], which calls [tick ()] between its steps, with a burst every
   [every] ticks (and at least ten in all). Returns [f]'s result, its wall
   time without the bursts, and the speed factor. *)
let interleaved ~every f =
  let t = { bursts = 0; seconds = 0.0 } and ticks = ref 0 in
  let tick () =
    incr ticks;
    if !ticks mod every = 0 then timed_burst t
  in
  let start = Unix.gettimeofday () in
  let result = f tick in
  let run_s = Unix.gettimeofday () -. start -. t.seconds in
  while t.bursts < 10 do
    timed_burst t
  done;
  (result, run_s, speed t)
