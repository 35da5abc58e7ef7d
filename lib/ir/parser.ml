(* Recursive-descent parser for textual Limple, the inverse of {!Pp}.
   Intended for tests and hand-written example programs; the corpus code
   generator builds IR directly via {!Builder}. *)

open Types

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Lexer                                                              *)
(* ------------------------------------------------------------------ *)

type token =
  | Tident of string  (** identifiers, possibly dotted: [com.example.Cls] *)
  | Tint of int
  | Tstring of string
  | Tpunct of string  (** one of the fixed punctuation/operator tokens *)
  | Teof

let punctuators =
  (* Longest first so the lexer is greedy. *)
  [ "=="; "!="; "<="; ">="; "&&"; "||"; "[]"; "("; ")"; "{"; "}"; "[";
    "]"; "<"; ">"; ","; ";"; ":"; "="; "+"; "-"; "*"; "/"; "." ]

let lex (src : string) : token list =
  let n = String.length src in
  let toks = ref [] in
  let i = ref 0 in
  let peek k = if !i + k < n then Some src.[!i + k] else None in
  let is_ident_char c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
    || c = '_' || c = '$'
  in
  while !i < n do
    let c = src.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c = '/' && peek 1 = Some '*' then begin
      (* Skip comments. *)
      i := !i + 2;
      let rec skip () =
        if !i + 1 >= n then i := n
        else if src.[!i] = '*' && src.[!i + 1] = '/' then i := !i + 2
        else begin
          incr i;
          skip ()
        end
      in
      skip ()
    end
    else if c = '"' then begin
      (* String literal with OCaml-style escapes as produced by %S, which
         writes every byte outside 32-126 as a decimal [\ddd]. *)
      let buf = Buffer.create 16 in
      incr i;
      let is_digit k =
        !i + k < n && src.[!i + k] >= '0' && src.[!i + k] <= '9'
      in
      let rec scan () =
        if !i >= n then fail "unterminated string literal"
        else
          match src.[!i] with
          | '"' -> incr i
          | '\\' ->
              (if !i + 1 >= n then fail "unterminated escape"
               else if is_digit 1 && is_digit 2 && is_digit 3 then begin
                 let code = int_of_string (String.sub src (!i + 1) 3) in
                 if code > 255 then fail "escape \\%03d out of range" code;
                 Buffer.add_char buf (Char.chr code);
                 i := !i + 4
               end
               else begin
                 (match src.[!i + 1] with
                 | 'n' -> Buffer.add_char buf '\n'
                 | 't' -> Buffer.add_char buf '\t'
                 | 'r' -> Buffer.add_char buf '\r'
                 | 'b' -> Buffer.add_char buf '\b'
                 | ch -> Buffer.add_char buf ch (* a quote, a backslash *));
                 i := !i + 2
               end);
              scan ()
          | ch ->
              Buffer.add_char buf ch;
              incr i;
              scan ()
      in
      scan ();
      toks := Tstring (Buffer.contents buf) :: !toks
    end
    else if c >= '0' && c <= '9' then begin
      let j = ref !i in
      while !j < n && src.[!j] >= '0' && src.[!j] <= '9' do
        incr j
      done;
      toks := Tint (int_of_string (String.sub src !i (!j - !i))) :: !toks;
      i := !j
    end
    else if is_ident_char c then begin
      let j = ref !i in
      while !j < n && is_ident_char src.[!j] do
        incr j
      done;
      toks := Tident (String.sub src !i (!j - !i)) :: !toks;
      i := !j
    end
    else begin
      let matched =
        List.find_opt
          (fun p ->
            let lp = String.length p in
            !i + lp <= n && String.sub src !i lp = p)
          punctuators
      in
      match matched with
      | Some p ->
          toks := Tpunct p :: !toks;
          i := !i + String.length p
      | None -> fail "unexpected character %C at offset %d" c !i
    end
  done;
  List.rev (Teof :: !toks)

(* ------------------------------------------------------------------ *)
(* Token stream                                                       *)
(* ------------------------------------------------------------------ *)

type stream = { mutable toks : token list }

let peek s = match s.toks with [] -> Teof | t :: _ -> t
let peek2 s = match s.toks with _ :: t :: _ -> t | _ -> Teof

let next s =
  match s.toks with
  | [] -> Teof
  | t :: rest ->
      s.toks <- rest;
      t

let expect_punct s p =
  match next s with
  | Tpunct q when q = p -> ()
  | t -> fail "expected %S, got %s" p (match t with
      | Tident x -> Printf.sprintf "ident %s" x
      | Tint n -> string_of_int n
      | Tstring x -> Printf.sprintf "string %S" x
      | Tpunct x -> Printf.sprintf "%S" x
      | Teof -> "eof")

let expect_ident s =
  match next s with
  | Tident x -> x
  | _ -> fail "expected identifier"

let accept_punct s p =
  match peek s with
  | Tpunct q when q = p ->
      ignore (next s);
      true
  | _ -> false

let accept_kw s kw =
  match peek s with
  | Tident x when x = kw ->
      ignore (next s);
      true
  | _ -> false

(* A dotted name: ident (. ident)*.  Returns the full dotted string. *)
let dotted_name s =
  let first = expect_ident s in
  let buf = Buffer.create 16 in
  Buffer.add_string buf first;
  let rec go () =
    match (peek s, peek2 s) with
    | Tpunct ".", Tident x ->
        ignore (next s);
        ignore (next s);
        Buffer.add_char buf '.';
        Buffer.add_string buf x;
        go ()
    | _ -> ()
  in
  go ();
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Types and values                                                   *)
(* ------------------------------------------------------------------ *)

let parse_ty s =
  let base =
    match dotted_name s with
    | "void" -> Void
    | "int" -> Int
    | "bool" -> Bool
    | "str" -> Str
    | name -> Obj name
  in
  let rec arr t = if accept_punct s "[]" then arr (Arr t) else t in
  arr base

(* Split a dotted method path into (class, method-name) at the last dot. *)
let split_last_dot path =
  match String.rindex_opt path '.' with
  | None -> fail "expected qualified name, got %s" path
  | Some k ->
      (String.sub path 0 k, String.sub path (k + 1) (String.length path - k - 1))

type env = { vars : (string, var) Hashtbl.t }

let lookup_var env name =
  match Hashtbl.find_opt env.vars name with
  | Some v -> v
  | None -> fail "unknown local %s" name

let parse_value env s =
  match peek s with
  | Tint n ->
      ignore (next s);
      Const (Cint n)
  | Tstring str ->
      ignore (next s);
      Const (Cstr str)
  | Tpunct "-" ->
      ignore (next s);
      (match next s with
      | Tint n -> Const (Cint (-n))
      | _ -> fail "expected integer after -")
  | Tident "true" ->
      ignore (next s);
      Const (Cbool true)
  | Tident "false" ->
      ignore (next s);
      Const (Cbool false)
  | Tident "null" ->
      ignore (next s);
      Const Cnull
  | Tident name ->
      ignore (next s);
      Local (lookup_var env name)
  | _ -> fail "expected value"

(* <cls:fname:ty> *)
let parse_field_ref s =
  expect_punct s "<";
  let fcls = dotted_name s in
  expect_punct s ":";
  let fname = expect_ident s in
  expect_punct s ":";
  let fty = parse_ty s in
  expect_punct s ">";
  { fcls; fname; fty }

(* <cls.mname:ret>(args) following the kind and optional receiver.  The
   method name may be the constructor token "<init>". *)
let parse_invoke env s ikind ibase =
  expect_punct s "<";
  let path = dotted_name s in
  let mcls, mname =
    match (peek s, peek2 s) with
    | Tpunct ".", Tpunct "<" ->
        (* path.<init> *)
        ignore (next s);
        expect_punct s "<";
        let kw = expect_ident s in
        expect_punct s ">";
        (path, "<" ^ kw ^ ">")
    | _ -> split_last_dot path
  in
  expect_punct s ":";
  let mret = parse_ty s in
  expect_punct s ">";
  expect_punct s "(";
  let args = ref [] in
  if not (accept_punct s ")") then begin
    let rec go () =
      args := parse_value env s :: !args;
      if accept_punct s "," then go () else expect_punct s ")"
    in
    go ()
  end;
  let iargs = List.rev !args in
  {
    ikind;
    iref = { mcls; mname; mret; nargs = List.length iargs };
    ibase;
    iargs;
  }

let invoke_kind_of_kw = function
  | "virtual" -> Some Virtual
  | "special" -> Some Special
  | "static" -> Some Static
  | _ -> None

(* kind [recv.]<...>(...) *)
let parse_invoke_after_kw env s kind =
  match peek s with
  | Tpunct "<" -> parse_invoke env s kind None
  | Tident recv when peek2 s = Tpunct "." ->
      ignore (next s);
      expect_punct s ".";
      parse_invoke env s kind (Some (lookup_var env recv))
  | _ -> fail "expected invoke receiver or method reference"

let binop_of_symbol = function
  | "+" -> Some Add
  | "-" -> Some Sub
  | "*" -> Some Mul
  | "/" -> Some Div
  | "==" -> Some Eq
  | "!=" -> Some Ne
  | "<" -> Some Lt
  | "<=" -> Some Le
  | ">" -> Some Gt
  | ">=" -> Some Ge
  | "&&" -> Some And
  | "||" -> Some Or
  | _ -> None

let parse_expr env s =
  match peek s with
  | Tident kw when invoke_kind_of_kw kw <> None ->
      ignore (next s);
      let kind = Option.get (invoke_kind_of_kw kw) in
      Invoke (parse_invoke_after_kw env s kind)
  | Tident "new" ->
      ignore (next s);
      New (dotted_name s)
  | Tident "newarray" ->
      ignore (next s);
      let t = parse_ty s in
      expect_punct s "[";
      let v = parse_value env s in
      expect_punct s "]";
      NewArr (t, v)
  | Tident "lengthof" ->
      ignore (next s);
      ALen (lookup_var env (expect_ident s))
  | Tpunct "(" ->
      ignore (next s);
      let t = parse_ty s in
      expect_punct s ")";
      Cast (t, parse_value env s)
  | Tpunct "<" -> SField (parse_field_ref s)
  | Tident name
    when peek2 s = Tpunct "." && not (List.mem name [ "true"; "false"; "null" ])
    -> (
      (* Either x.<field ref> or a dotted constant misuse; fields only. *)
      ignore (next s);
      expect_punct s ".";
      match peek s with
      | Tpunct "<" -> IField (lookup_var env name, parse_field_ref s)
      | _ -> fail "expected field reference after %s." name)
  | Tident name when peek2 s = Tpunct "[" ->
      ignore (next s);
      expect_punct s "[";
      let i = parse_value env s in
      expect_punct s "]";
      AElem (lookup_var env name, i)
  | _ -> (
      let v = parse_value env s in
      match peek s with
      | Tpunct p when binop_of_symbol p <> None ->
          ignore (next s);
          let op = Option.get (binop_of_symbol p) in
          Binop (op, v, parse_value env s)
      | _ -> Val v)

(* ------------------------------------------------------------------ *)
(* Statements                                                         *)
(* ------------------------------------------------------------------ *)

let parse_stmt env s =
  match peek s with
  | Tident "nop" ->
      ignore (next s);
      Nop
  | Tident "label" ->
      ignore (next s);
      Lab (expect_ident s)
  | Tident "goto" ->
      ignore (next s);
      Goto (expect_ident s)
  | Tident "if" ->
      ignore (next s);
      let v = parse_value env s in
      if not (accept_kw s "goto") then fail "expected goto in if";
      If (v, expect_ident s)
  | Tident "return" ->
      ignore (next s);
      if peek s = Tpunct ";" then Return None else Return (Some (parse_value env s))
  | Tident kw when invoke_kind_of_kw kw <> None && peek2 s <> Tpunct "=" ->
      ignore (next s);
      let kind = Option.get (invoke_kind_of_kw kw) in
      InvokeStmt (parse_invoke_after_kw env s kind)
  | Tpunct "<" ->
      let f = parse_field_ref s in
      expect_punct s "=";
      Assign (Lsfield f, parse_expr env s)
  | Tident name -> (
      ignore (next s);
      match peek s with
      | Tpunct "=" ->
          ignore (next s);
          Assign (Lvar (lookup_var env name), parse_expr env s)
      | Tpunct "." ->
          ignore (next s);
          let f = parse_field_ref s in
          expect_punct s "=";
          Assign (Lfield (lookup_var env name, f), parse_expr env s)
      | Tpunct "[" ->
          ignore (next s);
          let i = parse_value env s in
          expect_punct s "]";
          expect_punct s "=";
          Assign (Lelem (lookup_var env name, i), parse_expr env s)
      | _ -> fail "expected assignment after %s" name)
  | _ -> fail "expected statement"

(* ------------------------------------------------------------------ *)
(* Declarations                                                       *)
(* ------------------------------------------------------------------ *)

let parse_meth s ~cls ~static =
  let ret = parse_ty s in
  (* Constructors print as [<init>], which lexes as punctuation around an
     identifier rather than as one identifier. *)
  let name =
    if accept_punct s "<" then begin
      let n = expect_ident s in
      expect_punct s ">";
      "<" ^ n ^ ">"
    end
    else expect_ident s
  in
  expect_punct s "(";
  let params = ref [] in
  if not (accept_punct s ")") then begin
    let rec go () =
      let t = parse_ty s in
      let n = expect_ident s in
      params := { vname = n; vty = t } :: !params;
      if accept_punct s "," then go () else expect_punct s ")"
    in
    go ()
  end;
  let params = List.rev !params in
  expect_punct s "{";
  let env = { vars = Hashtbl.create 16 } in
  List.iter (fun v -> Hashtbl.replace env.vars v.vname v) params;
  if not static then
    Hashtbl.replace env.vars "this" { vname = "this"; vty = Obj cls };
  let stmts = ref [] in
  let rec go () =
    if accept_punct s "}" then ()
    else if accept_kw s "local" then begin
      let t = parse_ty s in
      let n = expect_ident s in
      Hashtbl.replace env.vars n { vname = n; vty = t };
      expect_punct s ";";
      go ()
    end
    else begin
      stmts := parse_stmt env s :: !stmts;
      expect_punct s ";";
      go ()
    end
  in
  go ();
  {
    m_cls = cls;
    m_name = name;
    m_params = params;
    m_ret = ret;
    m_static = static;
    m_body = Array.of_list (List.rev !stmts);
  }

let parse_cls s ~library =
  let name = dotted_name s in
  let super = if accept_kw s "extends" then Some (dotted_name s) else None in
  expect_punct s "{";
  let fields = ref [] and methods = ref [] in
  let rec go () =
    if accept_punct s "}" then ()
    else begin
      let static = accept_kw s "static" in
      if accept_kw s "field" then begin
        let t = parse_ty s in
        let n = expect_ident s in
        expect_punct s ";";
        fields := { f_name = n; f_ty = t; f_static = static } :: !fields
      end
      else methods := parse_meth s ~cls:name ~static :: !methods;
      go ()
    end
  in
  go ();
  {
    c_name = name;
    c_super = super;
    c_fields = List.rev !fields;
    c_methods = List.rev !methods;
    c_library = library;
  }

let parse_program (src : string) : program =
  let s = { toks = lex src } in
  let entries = ref [] and classes = ref [] in
  let rec go () =
    match peek s with
    | Teof -> ()
    | Tident "entry" ->
        ignore (next s);
        let path = dotted_name s in
        let mcls, mname = split_last_dot path in
        expect_punct s ";";
        entries := { mcls; mname; mret = Void; nargs = 0 } :: !entries;
        go ()
    | Tident "library" ->
        ignore (next s);
        if not (accept_kw s "class") then fail "expected class after library";
        classes := parse_cls s ~library:true :: !classes;
        go ()
    | Tident "class" ->
        ignore (next s);
        classes := parse_cls s ~library:false :: !classes;
        go ()
    | _ -> fail "expected entry or class declaration"
  in
  go ();
  { p_classes = List.rev !classes; p_entries = List.rev !entries }
