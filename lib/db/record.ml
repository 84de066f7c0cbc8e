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

let decode payload =
  let limit = String.length payload in
  let parse_chunk position =
    match String.index_from_opt payload position ':' with
    | None -> invalid_arg "Record.decode: missing length delimiter"
    | Some colon ->
        (* Saturates past [limit]: such a length is truncated anyway. *)
        let rec length i acc =
          match payload.[i] with
          | ':' when i > position -> acc
          | '0' .. '9' as c ->
              length (i + 1) (min (limit + 1) ((10 * acc) + Char.code c - 48))
          | _ -> invalid_arg "Record.decode: malformed length"
        in
        let length = length position 0 in
        if colon + 1 + length > limit then
          invalid_arg "Record.decode: truncated field";
        (String.sub payload (colon + 1) length, colon + 1 + length)
  in
  let rec parse position acc =
    if position >= limit then List.rev acc
    else begin
      let name, after_name = parse_chunk position in
      let value, after_value = parse_chunk after_name in
      parse after_value ((name, value) :: acc)
    end
  in
  parse 0 []

let field payload name = List.assoc_opt name (decode payload)

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
