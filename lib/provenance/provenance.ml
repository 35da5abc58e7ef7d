(* The evidence chain behind every analysis conclusion.  PR 1 made the
   pipeline observable in time (spans, metrics); this layer makes it
   observable in meaning: which demarcation-point statement and slice
   steps admitted each slice line (§3.1), which taint facts justified
   each worklist conclusion, which Limple statement and api_sem rule
   produced each signature fragment (§3.2), and why a request/response
   pair or a dependency edge was drawn (§3.3).

   Recording follows the telemetry discipline exactly: a recorder is a
   mutable [enabled] flag plus tables, every record function reads the
   flag first, and the default recorder is disabled — the hot path pays
   one bool load. *)

module Ir = Extr_ir.Types

(** Why a statement entered a slice (§3.1, §3.4). *)
type slice_step =
  | Dp_discovered  (** the demarcation-point invoke itself *)
  | Backward_taint  (** reached by backward (request) propagation *)
  | Forward_taint  (** reached by forward (response) propagation *)
  | Async_setter  (** heap-carrier setter the §3.4 heuristic restarted from *)
  | Augmented  (** added by object-aware slice augmentation *)

let slice_step_name = function
  | Dp_discovered -> "demarcation-point"
  | Backward_taint -> "backward-taint"
  | Forward_taint -> "forward-taint"
  | Async_setter -> "async-setter"
  | Augmented -> "augmentation"

(** A fact-derivation edge: the taint engine's transfer function at
    [fe_stmt] derived [fe_fact] (rendered), justifying the statement's
    membership in the slice. *)
type fact_edge = {
  fe_stmt : Ir.stmt_id;
  fe_dir : [ `Backward | `Forward ];
  fe_fact : string;
}

(** An api_sem rule application: the interpreter modelled the library
    call at [ru_stmt] with rule [ru_rule] (the "cls.name" it matched). *)
type rule_app = { ru_stmt : Ir.stmt_id; ru_rule : string }

(** A signature fragment's origin: transaction [fg_tx]'s part [fg_part]
    ("method" / "uri" / "header:<h>" / "body" / "query:<k>" /
    "response:<path>") was produced at [fg_stmt] by rule [fg_rule]. *)
type fragment = {
  fg_tx : int;
  fg_part : string;
  fg_rule : string;
  fg_stmt : Ir.stmt_id;
}

(** Why a request/response pair was drawn for a demarcation point: the
    divergence head owning both disjoint segments (Figure 5). *)
type pair_evidence = {
  pe_dp : Ir.stmt_id;
  pe_head : Ir.method_id;
  pe_reason : string;  (** "sole-head" or "disjoint-context" *)
}

(** Why a [Txn.dep] edge was drawn. *)
type dep_evidence = {
  de_tx : int;
  de_from_tx : int;
  de_to_field : string;
  de_reason : string;  (** "response-value heap flow" or "db-mediated via <t>" *)
}

type t = {
  mutable enabled : bool;
  (* Slice steps are keyed by the owning demarcation-point statement so
     the evidence tree of a transaction can replay its slice. *)
  slice_steps : (Ir.stmt_id, (Ir.stmt_id * slice_step) list ref) Hashtbl.t;
  mutable fact_edges : fact_edge list;
  mutable rules : rule_app list;
  mutable fragments : fragment list;
  mutable pairs : pair_evidence list;
  mutable deps : dep_evidence list;
}

let create ?(enabled = false) () =
  {
    enabled;
    slice_steps = Hashtbl.create 16;
    fact_edges = [];
    rules = [];
    fragments = [];
    pairs = [];
    deps = [];
  }

let default = create ()
let set_enabled t b = t.enabled <- b
let is_enabled t = t.enabled

let reset t =
  Hashtbl.reset t.slice_steps;
  t.fact_edges <- [];
  t.rules <- [];
  t.fragments <- [];
  t.pairs <- [];
  t.deps <- []

(* ------------------------------------------------------------------ *)
(* Recording (every function checks [enabled] first)                   *)
(* ------------------------------------------------------------------ *)

let record_slice_step t ~dp ~stmt step =
  if t.enabled then begin
    let cell =
      match Hashtbl.find_opt t.slice_steps dp with
      | Some c -> c
      | None ->
          let c = ref [] in
          Hashtbl.replace t.slice_steps dp c;
          c
    in
    cell := (stmt, step) :: !cell
  end

let record_fact_edge t ~dir ~stmt fact =
  if t.enabled then
    t.fact_edges <- { fe_stmt = stmt; fe_dir = dir; fe_fact = fact } :: t.fact_edges

let record_rule t ~stmt rule =
  if t.enabled then t.rules <- { ru_stmt = stmt; ru_rule = rule } :: t.rules

let record_fragment t ~tx ~part ~rule ~stmt =
  if t.enabled then
    t.fragments <-
      { fg_tx = tx; fg_part = part; fg_rule = rule; fg_stmt = stmt } :: t.fragments

let record_pair t ~dp ~head ~reason =
  if t.enabled then
    t.pairs <- { pe_dp = dp; pe_head = head; pe_reason = reason } :: t.pairs

let record_dep t ~tx ~from_tx ~to_field ~reason =
  if t.enabled then
    t.deps <-
      { de_tx = tx; de_from_tx = from_tx; de_to_field = to_field; de_reason = reason }
      :: t.deps

(* ------------------------------------------------------------------ *)
(* Queries (chronological order restored)                              *)
(* ------------------------------------------------------------------ *)

let slice_steps t ~dp =
  match Hashtbl.find_opt t.slice_steps dp with
  | Some c -> List.rev !c
  | None -> []

let fact_edges_at t (sid : Ir.stmt_id) =
  List.rev (List.filter (fun e -> Ir.Stmt_id.equal e.fe_stmt sid) t.fact_edges)

let rules t = List.rev t.rules

let rules_at t (sid : Ir.stmt_id) =
  List.rev (List.filter (fun r -> Ir.Stmt_id.equal r.ru_stmt sid) t.rules)

(** Fragments of a transaction, remapped through [aliases] (raw id →
    representative id after report dedup): fragments of any alias of
    [tx] count as evidence for the representative. *)
let fragments_of t ?(aliases = []) tx =
  let ids = tx :: List.filter_map (fun (raw, rep) -> if rep = tx then Some raw else None) aliases in
  List.rev (List.filter (fun f -> List.mem f.fg_tx ids) t.fragments)

let pairs_of t ~dp =
  List.rev (List.filter (fun p -> Ir.Stmt_id.equal p.pe_dp dp) t.pairs)

let deps_of t ?(aliases = []) tx =
  let ids = tx :: List.filter_map (fun (raw, rep) -> if rep = tx then Some raw else None) aliases in
  List.rev (List.filter (fun d -> List.mem d.de_tx ids) t.deps)

