(** Semantic models of library APIs over abstract values (§3.2).

    Each modelled call is interpreted on the signature domain:
    StringBuilder appends concatenate signatures, JSON puts grow builder
    trees, HTTP request constructors collect URIs/headers/bodies,
    demarcation points finalize transactions, and response accessors
    record which body parts the app parses.  All object state goes
    through the interpreter's current-path heap. *)

module Ir = Extr_ir.Types
module Prog = Extr_ir.Prog
module Strsig = Extr_siglang.Strsig
module Msgsig = Extr_siglang.Msgsig
module Http = Extr_httpmodel.Http

(** Everything a modelled call may touch, supplied by the interpreter. *)
type ctx = {
  cx_prog : Prog.t;
  cx_heap : Absval.heap ref;  (** the current execution path's heap *)
  cx_sid : Ir.stmt_id;  (** the statement being modelled (for provenance) *)
  cx_resources : int -> string option;
  cx_new_tx : dp:Ir.stmt_id -> Txn.t;
  cx_tx : int -> Txn.t option;
  cx_db : (string, Absval.prov list) Hashtbl.t;
      (** SQLite pseudo-store: [table.column] → stored provenance *)
  cx_run_callback :
    Ir.method_id -> Absval.t option -> Absval.t list -> Absval.t;
  cx_register : Extr_semantics.Callbacks.event -> Absval.t -> unit;
      (** record a listener registration so the interpreter later fires
          the event's callback with the same receiver heap state *)
  cx_intents : bool;
      (** resolve intent-service dispatch with constant actions
          (extension; off reproduces the paper's §4 limitation) *)
}

val query_body_of_sig : Strsig.t -> (string * Strsig.t) list option
(** Derive a query-style body signature from a string signature shaped
    like [k=v&k2=v2...]; [None] when the shape does not hold. *)

val parse_http_wire : Strsig.t -> (Http.meth * Strsig.t) option
(** Recognize an HTTP request head written to a raw socket
    (["GET /path HTTP/1.1\r\n..."]) and split it into method and URI
    signature — the direct-socket demarcation extension. *)

val call :
  ctx ->
  sid:Ir.stmt_id ->
  Extr_semantics.Api.model ->
  Ir.invoke ->
  base:Absval.t option ->
  args:Absval.t list ->
  Absval.t option
(** Interpret a library call abstractly under the model it resolves to.
    [sid] is the statement id (the transaction anchor for demarcation
    points).  Returns [None] for the models only the concrete runtime
    gives a meaning (the caller falls back to [Vtop]). *)
