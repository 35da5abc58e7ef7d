(** Inverted index over Limple method bodies — the analogue of BackDroid's
    bytecode-search stage.  One linear scan of the application methods up
    front, then O(1) lookup of candidate call sites by invoked method name
    and of field-store sites by field.  The call graph and the slicer's
    demarcation discovery run off this index instead of re-scanning every
    method body. *)

type site = {
  st_stmt : Types.stmt_id;
  st_invoke : Types.invoke;
  st_ord : int;
      (** global scan ordinal: position of the invoke in the canonical
          method/statement scan order, so lookups merged across several
          keys can be put back into one program-wide order *)
}

type store = {
  fs_stmt : Types.stmt_id;
  fs_var : Types.var;  (** receiver object of the instance-field store *)
  fs_field : Types.field_ref;
  fs_ord : int;  (** global scan ordinal, shared with {!site} ordinals *)
}

type t

val build : Prog.t -> t
(** Scan all application methods once (in [Prog.app_methods] order) and
    build the index. *)

val sites_invoking : t -> string -> site list
(** All call sites whose invoked signature has the given method name, in
    scan order.  Every direct callee of an invoke shares the invoke's
    name, so this over-approximates the caller set of any method with
    that name. *)

val field_stores : t -> string * string -> store list
(** Instance-field stores to [(class, field)], in scan order. *)
