let[@inline] get a i default = if i >= 0 && i < Array.length a then a.(i) else default

let cover a i fill =
  if i < Array.length a then a
  else begin
    let grown = Array.make (max (i + 1) (2 * Array.length a)) fill in
    Array.blit a 0 grown 0 (Array.length a);
    grown
  end

module Int = Hashtbl.Make (Int)
module String = Hashtbl.Make (String)
