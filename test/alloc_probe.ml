(* Minor words allocated per call of [cycle], averaged over 1,000 calls
   after a warm-up. Run it inside a fiber, so the engine events a cycle
   waits for execute inside the measured span. The compiler is pinned
   (5.1.1), so the count is exact and a change in either direction
   shows. *)
let words_per_cycle cycle =
  for _ = 1 to 10 do
    cycle ()
  done;
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    cycle ()
  done;
  int_of_float (Float.round ((Gc.minor_words () -. before) /. 1000.))
