(** Limple: a typed three-address intermediate representation modelled
    after Jimple, the IR Extractocol operates on (paper §4).

    A program is a pool of classes; a class holds fields and methods; a
    method body is an array of statements addressed by index, with
    explicit labels for control flow. *)

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

type var = { vname : string; vty : ty }
[@@deriving show { with_path = false }, eq, ord]

(** Reference to a field, resolved by class and field name. *)
type field_ref = { fcls : string; fname : string; fty : ty }
[@@deriving show { with_path = false }, eq, ord]

(** Reference to a method signature.  Overloading is resolved by name and
    arity only, which is sufficient for Limple programs. *)
type method_ref = { mcls : string; mname : string; mret : ty; nargs : int }
[@@deriving show { with_path = false }, eq, ord]

type value = Const of const | Local of var
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
  | Virtual  (** dynamic dispatch on the receiver's runtime class *)
  | Special  (** constructors and super calls: static target *)
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
      (** [true] for classes that belong to a modelled library (HTTP,
          JSON, ...); their bodies are interpreted by semantic models
          rather than analyzed. *)
}

type program = {
  p_classes : cls list;
  p_entries : method_ref list;
      (** entry points, e.g. activity lifecycle methods *)
}

(** Identity of a method inside a program: class name + method name. *)
type method_id = { id_cls : string; id_name : string }
[@@deriving show { with_path = false }, eq, ord]

(** Identity of a statement inside a program. *)
type stmt_id = { sid_meth : method_id; sid_idx : int }
[@@deriving show { with_path = false }, eq, ord]

val method_id_of_meth : meth -> method_id
val method_id_of_ref : method_ref -> method_id

val this_var : string -> var
(** [this] receiver variable for instance methods of class [cls]. *)

(** Ordered method identities, usable as map/set keys. *)
module Method_id : sig
  type t = method_id

  val compare : t -> t -> int
  val equal : t -> t -> bool
  val pp : Format.formatter -> t -> unit
  val to_string : t -> string
end

(** Ordered statement identities, usable as map/set keys. *)
module Stmt_id : sig
  type t = stmt_id

  val compare : t -> t -> int
  val equal : t -> t -> bool
  val pp : Format.formatter -> t -> unit
  val to_string : t -> string
end

module Method_map : Map.S with type key = method_id
module Method_set : Set.S with type elt = method_id
module Stmt_set : Set.S with type elt = stmt_id
module Stmt_map : Map.S with type key = stmt_id

val value_uses : value -> var list
(** Variables read by a value. *)

val expr_uses : expr -> var list
(** Variables read by an expression, including invoke receivers and
    arguments. *)

val stmt_uses : stmt -> var list
(** Variables read by a statement (for [Assign], includes variables read
    on the left-hand side, e.g. the receiver of a field store). *)

val stmt_def : stmt -> var option
(** The local variable defined by a statement, if any. *)

val stmt_invoke : stmt -> invoke option
(** The invoke expression contained in a statement, if any. *)
