type t = int

(* home | cpu (4 bits) | seq (40 bits), high to low, so integer order is
   (home, cpu, seq) order. *)
let seq_bits = 40
let cpu_bits = 4
let max_seq = (1 lsl seq_bits) - 1
let max_cpu = (1 lsl cpu_bits) - 1
let home_shift = seq_bits + cpu_bits
let max_home = max_int lsr home_shift

let make ~home ~cpu ~seq =
  if home < 0 || home > max_home || cpu < 0 || cpu > max_cpu || seq < 0
     || seq > max_seq
  then
    invalid_arg
      (Printf.sprintf "Transid.make: %d.%d.%d out of range" home cpu seq);
  (home lsl home_shift) lor (cpu lsl seq_bits) lor seq

let home t = t lsr home_shift

let cpu t = (t lsr seq_bits) land max_cpu

let seq t = t land max_seq

let equal = Int.equal

let compare = Int.compare

let to_string t = Printf.sprintf "%d.%d.%d" (home t) (cpu t) (seq t)

let rec digits n = if n < 10 then 1 else 1 + digits (n / 10)

let text_length t = digits (home t) + digits (cpu t) + digits (seq t) + 2

let of_string s =
  match String.split_on_char '.' s with
  | [ home; cpu; seq ] -> (
      match (int_of_string_opt home, int_of_string_opt cpu, int_of_string_opt seq) with
      | Some home, Some cpu, Some seq -> (
          try Some (make ~home ~cpu ~seq) with Invalid_argument _ -> None)
      | _ -> None)
  | _ -> None

let pp formatter t = Format.pp_print_string formatter (to_string t)

module Tbl = Hashtbl.Make (Int)
module Set = Set.Make (Int)
