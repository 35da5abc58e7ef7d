(* Textual Limple printer.  The output is accepted by {!Parser}, so programs
   round-trip between in-memory and textual forms.  Method bodies declare
   every local with its type up front so the parser can reconstruct typed
   variables without inference.

   Every construct is emitted straight into a [Buffer.t].  The text is
   also what the result cache's key digests, once per app of every corpus
   run, so it must be cheap to produce and must never change: a moved
   byte moves every cache key. *)

open Types

let str = Buffer.add_string
let chr = Buffer.add_char

let rec add_ty b = function
  | Void -> str b "void"
  | Int -> str b "int"
  | Bool -> str b "bool"
  | Str -> str b "str"
  | Obj c -> str b c
  | Arr t ->
      add_ty b t;
      str b "[]"

(* A string constant is an OCaml string literal: [String.escaped] between
   double quotes, exactly what [Printf.sprintf "%S"] produces. *)
let add_const b = function
  | Cint n -> str b (Int.to_string n)
  | Cbool v -> str b (Bool.to_string v)
  | Cstr s ->
      chr b '"';
      str b (String.escaped s);
      chr b '"'
  | Cnull -> str b "null"

let add_value b = function
  | Const c -> add_const b c
  | Local v -> str b v.vname

let add_list b add_item = function
  | [] -> ()
  | x :: xs ->
      add_item b x;
      List.iter
        (fun x ->
          str b ", ";
          add_item b x)
        xs

let binop_symbol = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Eq -> "=="
  | Ne -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | And -> "&&"
  | Or -> "||"

(* [<cls:fname:ty>], the form {!Parser} reads back. *)
let add_field_ref b (f : field_ref) =
  chr b '<';
  str b f.fcls;
  chr b ':';
  str b f.fname;
  chr b ':';
  add_ty b f.fty;
  chr b '>'

(* [virtual base.<cls.m:ret>(args)], or [static <cls.m:ret>(args)]. *)
let add_invoke b { ikind; iref; ibase; iargs } =
  str b
    (match ikind with
    | Virtual -> "virtual "
    | Special -> "special "
    | Static -> "static ");
  (match ibase with
  | Some v ->
      str b v.vname;
      chr b '.'
  | None -> ());
  chr b '<';
  str b iref.mcls;
  chr b '.';
  str b iref.mname;
  chr b ':';
  add_ty b iref.mret;
  str b ">(";
  add_list b add_value iargs;
  chr b ')'

let add_elem b (a : var) i =
  str b a.vname;
  chr b '[';
  add_value b i;
  chr b ']'

let add_ifield b (x : var) f =
  str b x.vname;
  chr b '.';
  add_field_ref b f

let add_expr b = function
  | Val v -> add_value b v
  | Binop (op, x, y) ->
      add_value b x;
      chr b ' ';
      str b (binop_symbol op);
      chr b ' ';
      add_value b y
  | New c ->
      str b "new ";
      str b c
  | NewArr (t, n) ->
      str b "newarray ";
      add_ty b t;
      chr b '[';
      add_value b n;
      chr b ']'
  | IField (x, f) -> add_ifield b x f
  | SField f -> add_field_ref b f
  | AElem (a, i) -> add_elem b a i
  | ALen a ->
      str b "lengthof ";
      str b a.vname
  | Invoke i -> add_invoke b i
  | Cast (t, v) ->
      chr b '(';
      add_ty b t;
      str b ") ";
      add_value b v

let add_lhs b = function
  | Lvar v -> str b v.vname
  | Lfield (x, f) -> add_ifield b x f
  | Lsfield f -> add_field_ref b f
  | Lelem (a, i) -> add_elem b a i

let add_stmt b = function
  | Assign (l, e) ->
      add_lhs b l;
      str b " = ";
      add_expr b e
  | InvokeStmt i -> add_invoke b i
  | If (v, l) ->
      str b "if ";
      add_value b v;
      str b " goto ";
      str b l
  | Goto l ->
      str b "goto ";
      str b l
  | Lab l ->
      str b "label ";
      str b l
  | Return None -> str b "return"
  | Return (Some v) ->
      str b "return ";
      add_value b v
  | Nop -> str b "nop"

(* Locals referenced by a body, excluding parameters and [this], in
   first-occurrence order; these become the method's [local] preamble. *)
let body_locals (m : meth) =
  let seen = Hashtbl.create 16 in
  List.iter (fun v -> Hashtbl.replace seen v.vname ()) m.m_params;
  if not m.m_static then Hashtbl.replace seen "this" ();
  let acc = ref [] in
  let visit v =
    if not (Hashtbl.mem seen v.vname) then begin
      Hashtbl.replace seen v.vname ();
      acc := v :: !acc
    end
  in
  Array.iter
    (fun s ->
      (match stmt_def s with Some v -> visit v | None -> ());
      List.iter visit (stmt_uses s))
    m.m_body;
  List.rev !acc

(* [ty name], as a parameter or a declaration. *)
let add_typed b (v : var) =
  add_ty b v.vty;
  chr b ' ';
  str b v.vname

let add_meth b (m : meth) =
  str b (if m.m_static then "  static " else "  ");
  add_ty b m.m_ret;
  chr b ' ';
  str b m.m_name;
  chr b '(';
  add_list b add_typed m.m_params;
  str b ") {\n";
  List.iter
    (fun v ->
      str b "    local ";
      add_typed b v;
      str b ";\n")
    (body_locals m);
  Array.iter
    (fun s ->
      str b "    ";
      add_stmt b s;
      str b ";\n")
    m.m_body;
  str b "  }\n"

let add_field_decl b (f : field) =
  str b (if f.f_static then "  static field " else "  field ");
  add_ty b f.f_ty;
  chr b ' ';
  str b f.f_name;
  str b ";\n"

let add_cls b (c : cls) =
  str b (if c.c_library then "library class " else "class ");
  str b c.c_name;
  Option.iter
    (fun s ->
      str b " extends ";
      str b s)
    c.c_super;
  str b " {\n";
  List.iter (add_field_decl b) c.c_fields;
  List.iter (add_meth b) c.c_methods;
  str b "}\n"

let add_program b (p : program) =
  List.iter
    (fun (e : method_ref) ->
      str b "entry ";
      str b e.mcls;
      chr b '.';
      str b e.mname;
      str b ";\n")
    p.p_entries;
  List.iter (add_cls b) p.p_classes

let to_string size add x =
  let b = Buffer.create size in
  add b x;
  Buffer.contents b

let program_to_string p = to_string 65536 add_program p
let stmt_to_string s = to_string 64 add_stmt s
