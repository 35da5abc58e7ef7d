(** Taint facts: the data-flow abstraction tracked by both propagation
    directions.  Locals are method-scoped access paths of depth ≤ 1
    (FlowDroid-style field sensitivity); instance fields also get a
    field-based global abstraction so heap flows across asynchronous
    boundaries are representable; SQLite tables are pseudo-stores so
    database-mediated dependencies (the TED case study) can be tracked. *)

module Ir = Extr_ir.Types

type t =
  | Flocal of Ir.method_id * string * string list
      (** local access path: method, variable name, field chain (≤ 1) *)
  | Ffield of string * string  (** any-receiver instance field: class, field *)
  | Fstatic of string * string  (** static field *)
  | Fdb of string  (** SQLite table pseudo-store *)

val compare : t -> t -> int
val pp : Format.formatter -> t -> unit

module Set : Set.S with type elt = t

module Map : Map.S with type key = t
(** Fact-keyed maps, in the set order: the backward engine maps each fact
    to the demarcation points it serves. *)

val local : Ir.method_id -> Ir.var -> t
(** Fact for a plain local. *)

val local_path : Ir.method_id -> Ir.var -> string -> t
(** Fact for [v.field]. *)

val local_tainted : Set.t -> Ir.method_id -> Ir.var -> bool
(** Is the plain local (whole object) tainted? *)

val local_or_path_tainted : Set.t -> Ir.method_id -> Ir.var -> bool
(** Is any access path rooted at the local tainted? *)

val globals : Set.t -> Set.t
(** The global (field/static/db) facts — an ordered split, not a filter
    scan; both engines call this on every method-boundary transfer. *)

val value_tainted : Set.t -> Ir.method_id -> Ir.value -> bool
(** Values: constants are never tainted. *)

val kill_local : Set.t -> Ir.method_id -> Ir.var -> Set.t
(** Remove every fact rooted at the local (strong update on redefinition). *)

val field_facts : Set.t -> (string * string) list
(** The instance-field facts present — the heap objects the asynchronous-
    event heuristic (§3.4) restarts propagation from. *)

val fold_root :
  (t -> 'a -> 'b -> 'b) -> 'a Map.t -> Ir.method_id -> string -> 'b -> 'b
(** Fold the bindings of every access path rooted at (method, variable
    name), in key order. *)

val globals_map : 'a Map.t -> 'a Map.t
(** The bindings of the global facts, as {!globals}. *)

val kill_local_map : 'a Map.t -> Ir.method_id -> Ir.var -> 'a Map.t
(** Remove every binding rooted at the local, as {!kill_local}. *)
