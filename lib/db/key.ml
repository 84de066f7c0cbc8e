type t = string

let compare = String.compare

let equal = String.equal

let min_key = ""

(* [Printf.sprintf "%012d" n] without the format interpreter. *)
let of_int n = Record.int_text ~width:12 n

let to_int t = int_of_string_opt t

let common_prefix_length a b =
  let limit = min (String.length a) (String.length b) in
  let rec scan i = if i < limit && a.[i] = b.[i] then scan (i + 1) else i in
  scan 0

let pp formatter t = Format.fprintf formatter "%S" t
