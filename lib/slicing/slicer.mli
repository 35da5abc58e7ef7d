(** Network-aware program slicing (§3.1).  For every demarcation point in
    the application: the backward (request) slice, the forward (response)
    slice, object-aware augmentation, and the asynchronous-event heuristic
    (§3.4).

    One backward engine computes the request slices of all the app's
    demarcation points at once — its facts carry the set of points they
    serve — and each slice is exactly what an engine for that point alone
    computes.  Response slices keep one forward engine per point, and
    augmentation shares one def/use index per method across them. *)

module Ir = Extr_ir.Types
module Prog = Extr_ir.Prog
module Callgraph = Extr_cfg.Callgraph
module Demarcation = Extr_semantics.Demarcation
module Resilience = Extr_resilience.Resilience

type dp_site = {
  dp_stmt : Ir.stmt_id;
  dp_invoke : Ir.invoke;
  dp_info : Demarcation.t;
}

type slice = { sl_dp : dp_site; sl_stmts : Ir.Stmt_set.t }

type result = {
  r_dps : dp_site list;
  r_request : slice list;  (** one request slice per demarcation point *)
  r_response : slice list;  (** one response slice per demarcation point *)
  r_stats : stats;
}

and stats = {
  st_total_stmts : int;
  st_slice_stmts : int;  (** statements in the union of all slices *)
}

val find_demarcation_points : ?scope:string -> Extr_ir.Index.t -> dp_site list
(** Demarcation-point invokes among the indexed call sites, in global
    scan order; [scope] restricts discovery to classes with the given
    prefix (§5.3). *)

type options = {
  opt_async_heuristic : bool;  (** §3.4 heuristic (on for closed-source) *)
  opt_async_iterations : int;
      (** heap-carrier hops to follow: 1 = the paper's implementation,
          higher values are its suggested multi-iteration extension *)
  opt_augmentation : bool;  (** object-aware augmentation *)
  opt_scope : string option;  (** class-prefix scope (§5.3) *)
  opt_budget : Resilience.Budget.t option;
      (** shared per-run budget the taint engines spend from; [None]
          gives each engine its own historical 2M-step bound — the one
          backward engine included *)
}

val default_options : options

val run : ?options:options -> Prog.t -> Callgraph.t -> result

val slice_fraction : result -> float
(** Fraction of application code covered by the slices (Figure 3 reports
    6.3 % for Diode). *)
