(* A small JSON value model with parser and printer.  Used for concrete
   response/request bodies in traffic traces and by the JSON signature
   matcher. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Printer                                                            *)
(* ------------------------------------------------------------------ *)

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Shortest decimal that round-trips.  A bare %g keeps only 6
   significant digits — enough to turn an epoch timestamp into a
   multiple of 1000 seconds.  The ".0" form for integral values keeps
   them parsing back as [Float], not [Int]. *)
let float_repr f =
  if Float.is_integer f && Float.abs f < 1e16 then Printf.sprintf "%.1f" f
  else
    let short = Printf.sprintf "%.15g" f in
    if float_of_string short = f then short else Printf.sprintf "%.17g" f

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f -> Buffer.add_string buf (float_repr f)
  | Str s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape_string s);
      Buffer.add_char buf '"'
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          to_buffer buf v)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape_string k);
          Buffer.add_string buf "\":";
          to_buffer buf v)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  to_buffer buf v;
  Buffer.contents buf

let rec pp fmt = function
  | Null -> Fmt.string fmt "null"
  | Bool b -> Fmt.bool fmt b
  | Int n -> Fmt.int fmt n
  | Float f -> Fmt.string fmt (float_repr f)
  | Str s -> Fmt.pf fmt "%S" s
  | List items -> Fmt.pf fmt "[@[%a@]]" (Fmt.list ~sep:Fmt.comma pp) items
  | Obj fields ->
      let pp_field fmt (k, v) = Fmt.pf fmt "%S: %a" k pp v in
      Fmt.pf fmt "{@[%a@]}" (Fmt.list ~sep:Fmt.comma pp_field) fields

(* ------------------------------------------------------------------ *)
(* Parser                                                             *)
(* ------------------------------------------------------------------ *)

type cursor = { src : string; mutable pos : int }

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let skip_ws c =
  let rec go () =
    match peek c with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance c;
        go ()
    | Some _ | None -> ()
  in
  go ()

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | Some x -> fail "expected %C at %d, got %C" ch c.pos x
  | None -> fail "expected %C at %d, got eof" ch c.pos

let parse_string_body c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> fail "unterminated string"
    | Some '"' -> advance c
    | Some '\\' -> (
        advance c;
        match peek c with
        | None -> fail "unterminated escape"
        | Some e ->
            advance c;
            (match e with
            | 'n' -> Buffer.add_char buf '\n'
            | 't' -> Buffer.add_char buf '\t'
            | 'r' -> Buffer.add_char buf '\r'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | '/' -> Buffer.add_char buf '/'
            | 'u' ->
                (* Keep the code-point textual: enough for signatures. *)
                let hex = String.init 4 (fun i -> c.src.[c.pos + i]) in
                c.pos <- c.pos + 4;
                let code = int_of_string ("0x" ^ hex) in
                if code < 128 then Buffer.add_char buf (Char.chr code)
                else Buffer.add_string buf (Printf.sprintf "\\u%s" hex)
            | other -> Buffer.add_char buf other);
            go ())
    | Some ch ->
        advance c;
        Buffer.add_char buf ch;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let is_num_char ch =
    (ch >= '0' && ch <= '9') || ch = '-' || ch = '+' || ch = '.' || ch = 'e' || ch = 'E'
  in
  let rec go () =
    match peek c with
    | Some ch when is_num_char ch ->
        advance c;
        go ()
    | Some _ | None -> ()
  in
  go ();
  let text = String.sub c.src start (c.pos - start) in
  match int_of_string_opt text with
  | Some n -> Int n
  | None -> (
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail "bad number %S at %d" text start)

let parse_literal c lit v =
  let len = String.length lit in
  if c.pos + len <= String.length c.src && String.sub c.src c.pos len = lit then begin
    c.pos <- c.pos + len;
    v
  end
  else fail "expected %s at %d" lit c.pos

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail "unexpected eof"
  | Some '"' -> Str (parse_string_body c)
  | Some '{' ->
      advance c;
      skip_ws c;
      if peek c = Some '}' then begin
        advance c;
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec go () =
          skip_ws c;
          let k = parse_string_body c in
          skip_ws c;
          expect c ':';
          let v = parse_value c in
          fields := (k, v) :: !fields;
          skip_ws c;
          match peek c with
          | Some ',' ->
              advance c;
              go ()
          | Some '}' -> advance c
          | _ -> fail "expected , or } at %d" c.pos
        in
        go ();
        Obj (List.rev !fields)
      end
  | Some '[' ->
      advance c;
      skip_ws c;
      if peek c = Some ']' then begin
        advance c;
        List []
      end
      else begin
        let items = ref [] in
        let rec go () =
          let v = parse_value c in
          items := v :: !items;
          skip_ws c;
          match peek c with
          | Some ',' ->
              advance c;
              go ()
          | Some ']' -> advance c
          | _ -> fail "expected , or ] at %d" c.pos
        in
        go ();
        List (List.rev !items)
      end
  | Some 't' -> parse_literal c "true" (Bool true)
  | Some 'f' -> parse_literal c "false" (Bool false)
  | Some 'n' -> parse_literal c "null" Null
  | Some _ -> parse_number c

let of_string s =
  let c = { src = s; pos = 0 } in
  let v = parse_value c in
  skip_ws c;
  if c.pos <> String.length s then fail "trailing garbage at %d" c.pos;
  v

let of_string_opt s = try Some (of_string s) with Parse_error _ -> None

(* ------------------------------------------------------------------ *)
(* Accessors                                                          *)
(* ------------------------------------------------------------------ *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | Null | Bool _ | Int _ | Float _ | Str _ | List _ -> None

(* Typed members: [None] when the key is missing or holds another kind.
   [num_member] reads an [Int] as a float too — the printers write
   integral floats without a fraction. *)
let str_member k v = match member k v with Some (Str s) -> Some s | _ -> None
let int_member k v = match member k v with Some (Int n) -> Some n | _ -> None
let bool_member k v = match member k v with Some (Bool b) -> Some b | _ -> None
let list_member k v = match member k v with Some (List l) -> Some l | _ -> None

let num_member key v =
  match member key v with
  | Some (Float f) -> Some f
  | Some (Int n) -> Some (float_of_int n)
  | _ -> None

let rec find_path path v =
  match path with
  | [] -> Some v
  | key :: rest -> (
      match member key v with Some v' -> find_path rest v' | None -> None)

(** All keys appearing anywhere in the value, with duplicates removed
    (used for keyword counting in Figure 7). *)
let rec all_keys v =
  match v with
  | Obj fields ->
      List.concat_map (fun (k, v') -> k :: all_keys v') fields
  | List items -> List.concat_map all_keys items
  | Null | Bool _ | Int _ | Float _ | Str _ -> []

let distinct_keys v = List.sort_uniq String.compare (all_keys v)

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool x, Bool y -> x = y
  | Int x, Int y -> x = y
  | Float x, Float y -> x = y
  | Str x, Str y -> String.equal x y
  | List xs, List ys ->
      List.length xs = List.length ys && List.for_all2 equal xs ys
  | Obj xs, Obj ys ->
      List.length xs = List.length ys
      && List.for_all2 (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && equal v1 v2) xs ys
  | (Null | Bool _ | Int _ | Float _ | Str _ | List _ | Obj _), _ -> false
