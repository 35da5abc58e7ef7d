(* Limple: a typed three-address intermediate representation modelled after
   Jimple, the IR Extractocol operates on (paper §4).  A program is a pool of
   classes; a class holds fields and methods; a method body is an array of
   statements addressed by index, with explicit labels for control flow. *)

type ty =
  | Void
  | Int
  | Bool
  | Str
  | Obj of string  (** class instance, by fully-qualified class name *)
  | Arr of ty
[@@deriving show { with_path = false }, eq, ord]

type const =
  | Cint of int
  | Cbool of bool
  | Cstr of string
  | Cnull
[@@deriving show { with_path = false }, eq, ord]

type var = { vname : string; vty : ty } [@@deriving show { with_path = false }, eq, ord]

(** Reference to a field, resolved by class and field name. *)
type field_ref = { fcls : string; fname : string; fty : ty }
[@@deriving show { with_path = false }, eq, ord]

(** Reference to a method signature.  Overloading is resolved by name and
    arity only, which is sufficient for Limple programs. *)
type method_ref = { mcls : string; mname : string; mret : ty; nargs : int }
[@@deriving show { with_path = false }, eq, ord]

type value =
  | Const of const
  | Local of var
[@@deriving show { with_path = false }, eq, ord]

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge
  | And
  | Or
[@@deriving show { with_path = false }, eq, ord]

type invoke_kind =
  | Virtual    (** dynamic dispatch on the receiver's runtime class *)
  | Special    (** constructors and super calls: static target *)
  | Static
[@@deriving show { with_path = false }, eq, ord]

type invoke = {
  ikind : invoke_kind;
  iref : method_ref;
  ibase : var option;  (** receiver; [None] for static calls *)
  iargs : value list;
}
[@@deriving show { with_path = false }, eq, ord]

type expr =
  | Val of value
  | Binop of binop * value * value
  | New of string  (** allocate an instance of the named class *)
  | NewArr of ty * value
  | IField of var * field_ref  (** [x.f] *)
  | SField of field_ref  (** [C.f] *)
  | AElem of var * value  (** [a[i]] *)
  | ALen of var
  | Invoke of invoke
  | Cast of ty * value
[@@deriving show { with_path = false }, eq, ord]

type lhs =
  | Lvar of var
  | Lfield of var * field_ref
  | Lsfield of field_ref
  | Lelem of var * value
[@@deriving show { with_path = false }, eq, ord]

type label = string [@@deriving show { with_path = false }, eq, ord]

type stmt =
  | Assign of lhs * expr
  | InvokeStmt of invoke
  | If of value * label  (** branch to [label] when the value is true *)
  | Goto of label
  | Lab of label
  | Return of value option
  | Nop
[@@deriving show { with_path = false }, eq, ord]

type meth = {
  m_cls : string;
  m_name : string;
  m_params : var list;
  m_ret : ty;
  m_static : bool;
  m_body : stmt array;
}

type field = { f_name : string; f_ty : ty; f_static : bool }

type cls = {
  c_name : string;
  c_super : string option;
  c_fields : field list;
  c_methods : meth list;
  c_library : bool;
      (** [true] for classes that belong to a modelled library (HTTP, JSON,
          ...); their bodies are interpreted by semantic models rather than
          analyzed. *)
}

type program = {
  p_classes : cls list;
  p_entries : method_ref list;  (** entry points, e.g. activity lifecycle methods *)
}

(** Identity of a method inside a program: class name + method name. *)
type method_id = { id_cls : string; id_name : string }
[@@deriving show { with_path = false }, eq, ord]

(** Identity of a statement inside a program. *)
type stmt_id = { sid_meth : method_id; sid_idx : int }
[@@deriving show { with_path = false }, eq, ord]

let method_id_of_meth (m : meth) = { id_cls = m.m_cls; id_name = m.m_name }
let method_id_of_ref (r : method_ref) = { id_cls = r.mcls; id_name = r.mname }

(** [this] receiver variable for instance methods of class [cls]. *)
let this_var cls = { vname = "this"; vty = Obj cls }

module Method_id = struct
  type t = method_id

  let compare = compare_method_id
  let equal = equal_method_id
  let pp fmt { id_cls; id_name } = Format.fprintf fmt "%s.%s" id_cls id_name
  let to_string id = Format.asprintf "%a" pp id
end

module Stmt_id = struct
  type t = stmt_id

  let compare = compare_stmt_id
  let equal = equal_stmt_id

  let pp fmt { sid_meth; sid_idx } =
    Format.fprintf fmt "%a:%d" Method_id.pp sid_meth sid_idx

  let to_string id = Format.asprintf "%a" pp id
end

module Method_map = Map.Make (Method_id)
module Method_set = Set.Make (Method_id)
module Stmt_set = Set.Make (Stmt_id)
module Stmt_map = Map.Make (Stmt_id)

(** Variables read by a value. *)
let value_uses = function Const _ -> [] | Local v -> [ v ]

(** Variables read by an expression, including invoke receivers and args. *)
let expr_uses = function
  | Val v -> value_uses v
  | Binop (_, a, b) -> value_uses a @ value_uses b
  | New _ -> []
  | NewArr (_, n) -> value_uses n
  | IField (x, _) -> [ x ]
  | SField _ -> []
  | AElem (a, i) -> a :: value_uses i
  | ALen a -> [ a ]
  | Invoke { ibase; iargs; _ } ->
      Option.to_list ibase @ List.concat_map value_uses iargs
  | Cast (_, v) -> value_uses v

(** Variables read by a statement (for [Assign], includes variables read on
    the left-hand side, e.g. the receiver of a field store). *)
let stmt_uses = function
  | Assign (l, e) ->
      let lhs_uses =
        match l with
        | Lvar _ -> []
        | Lfield (x, _) -> [ x ]
        | Lsfield _ -> []
        | Lelem (a, i) -> a :: value_uses i
      in
      lhs_uses @ expr_uses e
  | InvokeStmt i -> expr_uses (Invoke i)
  | If (v, _) -> value_uses v
  | Goto _ | Lab _ | Nop -> []
  | Return v -> ( match v with None -> [] | Some v -> value_uses v)

(** The local variable defined by a statement, if any. *)
let stmt_def = function
  | Assign (Lvar v, _) -> Some v
  | Assign ((Lfield _ | Lsfield _ | Lelem _), _) -> None
  | InvokeStmt _ | If _ | Goto _ | Lab _ | Return _ | Nop -> None

(** The invoke expression contained in a statement, if any. *)
let stmt_invoke = function
  | Assign (_, Invoke i) -> Some i
  | InvokeStmt i -> Some i
  | Assign (_, (Val _ | Binop _ | New _ | NewArr _ | IField _ | SField _ | AElem _ | ALen _ | Cast _))
  | If _ | Goto _ | Lab _ | Return _ | Nop ->
      None
