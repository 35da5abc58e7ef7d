(** Program-level lookups: class hierarchy, method resolution (including
    virtual dispatch), and structural well-formedness validation. *)

open Types

type t

val of_program : program -> t

val find_class : t -> string -> cls option
val find_method : t -> method_id -> meth option

val ancestry : t -> string -> string list
(** The superclass chain from a class upward, inclusive. *)

val is_subclass : t -> sub:string -> super:string -> bool

val resolve_virtual : t -> cls:string -> mname:string -> meth option
(** Closest ancestor (including the class itself) defining the method. *)

val subclasses : t -> string -> string list
(** All subclasses present in the program (inclusive) — CHA candidates. *)

val callees : t -> invoke -> meth list
(** CHA resolution of an invoke to concrete application methods; library
    methods are excluded (they are handled by semantic models).
    Memoized per (invoke kind, receiver class, method name). *)

val app_methods : t -> meth list
(** All methods of non-library classes. *)

val stmt_at : t -> stmt_id -> stmt option

val app_stmt_count : t -> int
(** Total statements over application methods (the Figure-3 slice-fraction
    denominator). *)

(** {1 Validation} *)

type validation_error = {
  ve_meth : method_id;
  ve_idx : int;
  ve_msg : string;
}

val validate : t -> validation_error list
(** Structural checks: branch targets defined, locals defined, constructed
    classes known. *)
