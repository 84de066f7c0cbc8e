(* Checks a documented worked example against the real output.

   Usage: doc_example DOC OUTPUT

   The example is the first fenced block after the line of DOC that
   starts with "Worked example". Every non-blank line of it other than
   "..." must appear, whole, among the lines of OUTPUT; the missing ones
   are printed and the exit status is 1. *)

let lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'

let rec drop_through p = function
  | [] -> []
  | line :: rest -> if p line then rest else drop_through p rest

let rec take_until p = function
  | [] -> []
  | line :: rest -> if p line then [] else line :: take_until p rest

let () =
  match Sys.argv with
  | [| _; doc; output |] ->
      let is_fence = String.starts_with ~prefix:"```" in
      let example =
        lines doc
        |> drop_through (String.starts_with ~prefix:"Worked example")
        |> drop_through is_fence |> take_until is_fence
      in
      let printed = lines output in
      let missing =
        List.filter
          (fun line ->
            String.trim line <> "" && line <> "..."
            && not (List.mem line printed))
          example
      in
      if example = [] then begin
        Printf.eprintf "%s: no worked example found\n" doc;
        exit 1
      end;
      if missing <> [] then begin
        Printf.eprintf "%s: worked example lines missing from the output:\n"
          doc;
        List.iter (Printf.eprintf "  %s\n") missing;
        exit 1
      end
  | _ ->
      prerr_endline "usage: doc_example DOC OUTPUT";
      exit 2
