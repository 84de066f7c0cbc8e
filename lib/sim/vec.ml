type 'a t = { mutable data : 'a array; mutable size : int }

let create () = { data = [||]; size = 0 }

let length t = t.size

let is_empty t = t.size = 0

let get t i =
  if i < 0 || i >= t.size then invalid_arg "Vec.get: index out of bounds";
  t.data.(i)

let reserve t x =
  let capacity = Array.length t.data in
  if capacity = 0 then t.data <- Array.make 16 x
  else if t.size >= capacity then
    (* Doubling by [Array.append], not [Array.make] + blit: [Array.make]
       past 256 words forces a minor collection when its fill value is
       young, as the element being pushed usually is. *)
    t.data <- Array.append t.data t.data

let push t x =
  reserve t x;
  t.data.(t.size) <- x;
  t.size <- t.size + 1

let last t = if t.size = 0 then None else Some t.data.(t.size - 1)

let pop t =
  if t.size = 0 then None
  else begin
    let x = t.data.(t.size - 1) in
    t.size <- t.size - 1;
    Some x
  end

let truncate t n =
  if n < 0 then invalid_arg "Vec.truncate: negative length";
  if n < t.size then t.size <- n

let drop_front t n =
  if n <= 0 then ()
  else if n >= t.size then begin
    t.data <- [||];
    t.size <- 0
  end
  else begin
    let remaining = t.size - n in
    let data = Array.sub t.data n remaining in
    t.data <- data;
    t.size <- remaining
  end

let clear t =
  t.data <- [||];
  t.size <- 0

let iter f t =
  for i = 0 to t.size - 1 do
    f t.data.(i)
  done

let fold_left f acc t =
  let acc = ref acc in
  for i = 0 to t.size - 1 do
    acc := f !acc t.data.(i)
  done;
  !acc

let to_list t =
  let rec collect i acc =
    if i < 0 then acc else collect (i - 1) (t.data.(i) :: acc)
  in
  collect (t.size - 1) []

(* Elements [lo .. hi] (inclusive, clamped), ascending, appended to [acc]'s
   reversal — used for slice extraction without intermediate arrays. *)
let sub_list t ~lo ~hi =
  let lo = max 0 lo and hi = min (t.size - 1) hi in
  let rec collect i acc =
    if i < lo then acc else collect (i - 1) (t.data.(i) :: acc)
  in
  collect hi []
