type fields = (string * string) list

(* Length-prefixed encoding: "<len>:<name><len>:<value>" per field. Any byte
   may appear in names and values, so encoded records nest (the suspense
   file carries whole record payloads inside its own records). *)

(* Integer text is written and parsed digit by digit, not through the C
   formatter and a substring per length. *)
let rec digits n = if n < 10 then 1 else 1 + digits (n / 10)

(* The digits of [n >= 0], ending just before [stop]. *)
let rec blit_digits bytes stop n =
  Bytes.unsafe_set bytes (stop - 1) (Char.unsafe_chr (48 + (n mod 10)));
  if n >= 10 then blit_digits bytes (stop - 1) (n / 10)

let int_text ?(width = 0) n =
  if n = min_int then Printf.sprintf "%0*d" width n
  else begin
    let sign = if n < 0 then 1 else 0 in
    let bytes = Bytes.make (max width (sign + digits (abs n))) '0' in
    if n < 0 then Bytes.set bytes 0 '-';
    blit_digits bytes (Bytes.length bytes) (abs n);
    Bytes.unsafe_to_string bytes
  end

let encode fields =
  let chunk s = digits (String.length s) + 1 + String.length s in
  let bytes =
    Bytes.create
      (List.fold_left
         (fun acc (name, value) -> acc + chunk name + chunk value)
         0 fields)
  in
  let put position s =
    let colon = position + digits (String.length s) in
    blit_digits bytes colon (String.length s);
    Bytes.set bytes colon ':';
    Bytes.blit_string s 0 bytes (colon + 1) (String.length s);
    colon + 1 + String.length s
  in
  ignore
    (List.fold_left
       (fun position (name, value) -> put (put position name) value)
       0 fields);
  Bytes.unsafe_to_string bytes

(* Decoding and lookup share one scan: [chunk_end] checks the chunk at
   [position] and returns where it ends; its text follows the first ':'. *)
let rec written_length payload position i acc =
  match payload.[i] with
  | ':' when i > position -> acc
  | '0' .. '9' as c ->
      (* Saturates past the payload: such a length is truncated anyway. *)
      let acc = min (String.length payload + 1) ((10 * acc) + Char.code c - 48) in
      written_length payload position (i + 1) acc
  | _ -> invalid_arg "Record.decode: malformed length"

let chunk_end payload position =
  match String.index_from_opt payload position ':' with
  | None -> invalid_arg "Record.decode: missing length delimiter"
  | Some colon ->
      let stop = colon + 1 + written_length payload position position 0 in
      if stop > String.length payload then
        invalid_arg "Record.decode: truncated field";
      stop

let text_start payload position = String.index_from payload position ':' + 1

let text payload position stop =
  let start = text_start payload position in
  String.sub payload start (stop - start)

let decode payload =
  let rec parse position acc =
    if position >= String.length payload then List.rev acc
    else begin
      let after_name = chunk_end payload position in
      let after_value = chunk_end payload after_name in
      parse after_value
        ((text payload position after_name, text payload after_name after_value)
        :: acc)
    end
  in
  parse 0 []

let rec same_text payload start name i =
  i = String.length name
  || (payload.[start + i] = name.[i] && same_text payload start name (i + 1))

(* The position of the value chunk of the first field called [name], or
   -1, found without cutting out any text. Every chunk is checked, so
   malformed input raises what [decode] raises. *)
let rec locate payload name position found =
  if position >= String.length payload then found
  else begin
    let after_name = chunk_end payload position in
    let after_value = chunk_end payload after_name in
    let start = text_start payload position in
    if
      found < 0
      && after_name - start = String.length name
      && same_text payload start name 0
    then locate payload name after_value after_name
    else locate payload name after_value found
  end

let field payload name =
  let at = locate payload name 0 (-1) in
  if at < 0 then None else Some (text payload at (chunk_end payload at))

let set_field payload name value =
  let fields = decode payload in
  let replaced = ref false in
  let updated =
    List.map
      (fun (n, v) ->
        if String.equal n name then begin
          replaced := true;
          (n, value)
        end
        else (n, v))
      fields
  in
  encode (if !replaced then updated else updated @ [ (name, value) ])

let int_field payload name = Option.bind (field payload name) int_of_string_opt

let size payload = String.length payload
