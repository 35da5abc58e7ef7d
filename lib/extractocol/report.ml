(* The final analysis report: deduplicated transactions with signatures,
   pairings, dependency graph, slice statistics and timing — everything the
   paper's evaluation tables consume. *)

module Ir = Extr_ir.Types
module Http = Extr_httpmodel.Http
module Msgsig = Extr_siglang.Msgsig
module Strsig = Extr_siglang.Strsig
module Resilience = Extr_resilience.Resilience

type transaction = {
  tr_id : int;
  tr_dp : Ir.stmt_id;  (** the demarcation point that produced the pair *)
  tr_request : Msgsig.request_sig;
  tr_response : Msgsig.response_sig;
  tr_deps : Txn.dep list;
  tr_origin : Ir.method_id;
  tr_dynamic_uri : bool;
  tr_srcs : string list;
  tr_degraded : bool;
      (** built under an exhausted budget: fragments may be missing *)
}

type t = {
  rp_app : string;
  rp_transactions : transaction list;
  rp_tx_aliases : (int * int) list;
      (** raw transaction id → representative id after {!dedup}; lets
          provenance recorded against merged duplicates reach the
          representative *)
  rp_dp_count : int;
  rp_slice_fraction : float;
  rp_slice_stmts : int;
  rp_total_stmts : int;
  rp_elapsed_s : float;
  rp_degradations : Resilience.Degrade.degradation list;
      (** phases that bailed before finishing (budget / deadline), in
          occurrence order; empty = the analysis ran to completion *)
}

(* ------------------------------------------------------------------ *)
(* Deduplication                                                      *)
(* ------------------------------------------------------------------ *)

(** Two transactions are the same protocol message when method, URI regex,
    body signature and response signature coincide (distinct call contexts
    can produce identical messages). *)
let same_signature (a : Txn.t) (b : Txn.t) =
  a.Txn.tx_meth = b.Txn.tx_meth
  && Strsig.to_regex a.Txn.tx_uri = Strsig.to_regex b.Txn.tx_uri
  && Fmt.str "%a" Msgsig.pp_body_sig a.Txn.tx_body
     = Fmt.str "%a" Msgsig.pp_body_sig b.Txn.tx_body
  && Fmt.str "%a" Msgsig.pp_body_sig (Respacc.to_body_sig a.Txn.tx_resp)
     = Fmt.str "%a" Msgsig.pp_body_sig (Respacc.to_body_sig b.Txn.tx_resp)

(** Deduplicate raw transactions, remapping dependency sources onto the
    representative ids. *)
let dedup (txs : Txn.t list) : Txn.t list * (int, int) Hashtbl.t =
  let id_map = Hashtbl.create 16 in
  let reps = ref [] in
  List.iter
    (fun tx ->
      match List.find_opt (fun r -> same_signature r tx) !reps with
      | Some rep ->
          Hashtbl.replace id_map tx.Txn.tx_id rep.Txn.tx_id;
          (* Merge consumers and deps into the representative. *)
          List.iter (Txn.add_consumer rep) tx.Txn.tx_consumers;
          List.iter (Txn.add_dep rep) tx.Txn.tx_deps;
          rep.Txn.tx_srcs <-
            List.sort_uniq String.compare (rep.Txn.tx_srcs @ tx.Txn.tx_srcs);
          rep.Txn.tx_dynamic_uri <- rep.Txn.tx_dynamic_uri || tx.Txn.tx_dynamic_uri;
          rep.Txn.tx_degraded <- rep.Txn.tx_degraded || tx.Txn.tx_degraded
      | None ->
          Hashtbl.replace id_map tx.Txn.tx_id tx.Txn.tx_id;
          reps := !reps @ [ tx ])
    txs;
  (* Remap dependency sources. *)
  List.iter
    (fun (tx : Txn.t) ->
      tx.Txn.tx_deps <-
        List.map
          (fun (d : Txn.dep) ->
            match Hashtbl.find_opt id_map d.Txn.dep_from_tx with
            | Some id -> { d with Txn.dep_from_tx = id }
            | None -> d)
          tx.Txn.tx_deps)
    !reps;
  (!reps, id_map)

let of_transactions ?(degradations = []) ~app ~dp_count ~slice_stmts
    ~total_stmts ~elapsed_s (txs : Txn.t list) : t =
  let reps, id_map = dedup txs in
  let transactions =
    List.map
      (fun (tx : Txn.t) ->
        {
          tr_id = tx.Txn.tx_id;
          tr_dp = tx.Txn.tx_dp;
          tr_request = Txn.request_sig tx;
          tr_response = Txn.response_sig tx;
          tr_deps = tx.Txn.tx_deps;
          tr_origin = tx.Txn.tx_origin;
          tr_dynamic_uri = tx.Txn.tx_dynamic_uri;
          tr_srcs = tx.Txn.tx_srcs;
          tr_degraded = tx.Txn.tx_degraded;
        })
      reps
  in
  let aliases =
    Hashtbl.fold
      (fun raw rep acc -> if raw <> rep then (raw, rep) :: acc else acc)
      id_map []
    |> List.sort compare
  in
  {
    rp_app = app;
    rp_transactions = transactions;
    rp_tx_aliases = aliases;
    rp_dp_count = dp_count;
    rp_slice_fraction =
      (if total_stmts = 0 then 0.0
       else float_of_int slice_stmts /. float_of_int total_stmts);
    rp_slice_stmts = slice_stmts;
    rp_total_stmts = total_stmts;
    rp_elapsed_s = elapsed_s;
    rp_degradations = degradations;
  }

(* ------------------------------------------------------------------ *)
(* Queries used by the evaluation                                     *)
(* ------------------------------------------------------------------ *)

let requests_by_method (t : t) (m : Http.meth) =
  List.filter (fun tr -> tr.tr_request.Msgsig.rs_meth = m) t.rp_transactions

(** Transactions whose response has a body processed by the app (the
    "#Pair" column of Table 1 counts request/response-body pairs). *)
let paired (t : t) =
  List.filter
    (fun tr ->
      match tr.tr_response.Msgsig.ps_body with
      | Msgsig.Bnone | Msgsig.Bopaque -> false
      | Msgsig.Bquery _ | Msgsig.Bjson _ | Msgsig.Bxml _ | Msgsig.Btext _ -> true)
    t.rp_transactions

let request_body_kind (tr : transaction) =
  match tr.tr_request.Msgsig.rs_body with
  | Msgsig.Bnone ->
      (* Query strings living in the URI count as query-string requests. *)
      if Msgsig.uri_query_keywords tr.tr_request.Msgsig.rs_uri <> [] then Some `Query
      else None
  | Msgsig.Bquery _ -> Some `Query
  | Msgsig.Bjson _ -> Some `Json
  | Msgsig.Bxml _ -> Some `Xml
  | Msgsig.Btext _ | Msgsig.Bopaque -> Some `Text

let response_body_kind (tr : transaction) =
  match tr.tr_response.Msgsig.ps_body with
  | Msgsig.Bnone | Msgsig.Bopaque -> None
  | Msgsig.Bjson _ -> Some `Json
  | Msgsig.Bxml _ -> Some `Xml
  | Msgsig.Bquery _ | Msgsig.Btext _ -> Some `Text

(* ------------------------------------------------------------------ *)
(* JSON export                                                        *)
(* ------------------------------------------------------------------ *)

module Json = Extr_httpmodel.Json
module Jsonsig = Extr_siglang.Jsonsig
module Xmlsig = Extr_siglang.Xmlsig

let json_of_body_sig (b : Msgsig.body_sig) : Json.t =
  let kind = Json.Str (Msgsig.body_sig_kind b) in
  match b with
  | Msgsig.Bnone -> Json.Obj [ ("kind", kind) ]
  | Msgsig.Bopaque -> Json.Obj [ ("kind", kind) ]
  | Msgsig.Btext sg ->
      Json.Obj [ ("kind", kind); ("regex", Json.Str (Strsig.to_regex sg)) ]
  | Msgsig.Bquery kvs ->
      Json.Obj
        [
          ("kind", kind);
          ( "params",
            Json.Obj
              (List.map (fun (k, v) -> (k, Json.Str (Strsig.to_regex v))) kvs)
          );
        ]
  | Msgsig.Bjson js ->
      Json.Obj [ ("kind", kind); ("shape", Json.Str (Jsonsig.to_string js)) ]
  | Msgsig.Bxml xs ->
      Json.Obj [ ("kind", kind); ("dtd", Json.Str (Xmlsig.to_dtd xs)) ]

let json_of_transaction (tr : transaction) : Json.t =
  Json.Obj
    [
      ("id", Json.Int tr.tr_id);
      ("dp", Json.Str (Ir.Stmt_id.to_string tr.tr_dp));
      ( "request",
        Json.Obj
          [
            ("method", Json.Str (Http.meth_to_string tr.tr_request.Msgsig.rs_meth));
            ("uri", Json.Str (Strsig.to_regex tr.tr_request.Msgsig.rs_uri));
            ( "headers",
              Json.Obj
                (List.map
                   (fun (k, v) -> (k, Json.Str (Strsig.to_regex v)))
                   tr.tr_request.Msgsig.rs_headers) );
            ("body", json_of_body_sig tr.tr_request.Msgsig.rs_body);
          ] );
      ( "response",
        Json.Obj
          [
            ("body", json_of_body_sig tr.tr_response.Msgsig.ps_body);
            ( "consumers",
              Json.List
                (List.map
                   (fun c -> Json.Str (Msgsig.consumer_to_string c))
                   tr.tr_response.Msgsig.ps_consumers) );
          ] );
      ( "dependencies",
        Json.List
          (List.map
             (fun (d : Txn.dep) ->
               Json.Obj
                 ([
                    ("from_tx", Json.Int d.Txn.dep_from_tx);
                    ( "from_path",
                      Json.Str (String.concat "." d.Txn.dep_from_path) );
                    ("to_field", Json.Str d.Txn.dep_to_field);
                  ]
                 @
                 match d.Txn.dep_via with
                 | Some v -> [ ("via", Json.Str v) ]
                 | None -> []))
             tr.tr_deps) );
      ("origin", Json.Str (Ir.Method_id.to_string tr.tr_origin));
      ("dynamic_uri", Json.Bool tr.tr_dynamic_uri);
      ("privacy_sources", Json.List (List.map (fun s -> Json.Str s) tr.tr_srcs));
      ("degraded", Json.Bool tr.tr_degraded);
    ]

let json_of_degradation (d : Resilience.Degrade.degradation) : Json.t =
  Json.Obj
    [
      ("phase", Json.Str d.Resilience.Degrade.dg_phase);
      ("reason", Json.Str d.Resilience.Degrade.dg_reason);
      ("detail", Json.Str d.Resilience.Degrade.dg_detail);
      ("work_left", Json.Int d.Resilience.Degrade.dg_work_left);
    ]

let degradation_of_json j =
  match
    ( Json.str_member "phase" j,
      Json.str_member "reason" j,
      Json.str_member "detail" j,
      Json.int_member "work_left" j )
  with
  | Some dg_phase, Some dg_reason, Some dg_detail, Some dg_work_left ->
      Some { Resilience.Degrade.dg_phase; dg_reason; dg_detail; dg_work_left }
  | _ -> None

let to_json ?provenance ?(deterministic = false) (t : t) : Json.t =
  Json.Obj
    ([
       ("app", Json.Str t.rp_app);
       ("demarcation_points", Json.Int t.rp_dp_count);
       ("slice_statements", Json.Int t.rp_slice_stmts);
       ("total_statements", Json.Int t.rp_total_stmts);
       ("slice_fraction", Json.Float t.rp_slice_fraction);
       (* Deterministic form: wall-clock is the one member that differs
          between two runs over identical inputs, which would break the
          byte-identity the result cache and --resume guarantee. *)
       ("elapsed_seconds", Json.Float (if deterministic then 0.0 else t.rp_elapsed_s));
       ( "degradations",
         Json.List (List.map json_of_degradation t.rp_degradations) );
       ( "transactions",
         Json.List (List.map json_of_transaction t.rp_transactions) );
     ]
    @ match provenance with Some p -> [ ("provenance", p) ] | None -> [])

(* ------------------------------------------------------------------ *)
(* DOT export                                                         *)
(* ------------------------------------------------------------------ *)

(* Escape double quotes and backslashes for DOT string literals. *)
let dot_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(** Render the inter-transaction dependency graph (the structure behind
    Figure 1): one node per transaction labelled with its method and URI
    regex, one edge per dependency labelled with the response path, the
    consumed field, and any mediator (e.g. a database table). *)
let to_dot (t : t) : string =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "digraph %S {\n  rankdir=LR;\n  node [shape=box, fontsize=10];\n"
       t.rp_app);
  List.iter
    (fun tr ->
      let uri = Strsig.to_regex tr.tr_request.Msgsig.rs_uri in
      let uri =
        if String.length uri > 60 then String.sub uri 0 57 ^ "..." else uri
      in
      Buffer.add_string buf
        (Printf.sprintf "  t%d [label=\"#%d %s %s\"];\n" tr.tr_id tr.tr_id
           (Http.meth_to_string tr.tr_request.Msgsig.rs_meth)
           (dot_escape uri)))
    t.rp_transactions;
  List.iter
    (fun tr ->
      List.iter
        (fun (d : Txn.dep) ->
          Buffer.add_string buf
            (Printf.sprintf "  t%d -> t%d [label=\"%s -> %s%s\"];\n"
               d.Txn.dep_from_tx tr.tr_id
               (dot_escape (String.concat "." d.Txn.dep_from_path))
               (dot_escape d.Txn.dep_to_field)
               (match d.Txn.dep_via with
               | Some v -> " via " ^ dot_escape v
               | None -> "")))
        tr.tr_deps)
    t.rp_transactions;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Pretty printing                                                    *)
(* ------------------------------------------------------------------ *)

let pp_transaction fmt tr =
  Fmt.pf fmt "#%d%s %a" tr.tr_id
    (if tr.tr_degraded then " [degraded]" else "")
    Msgsig.pp_request_sig tr.tr_request;
  (match tr.tr_response.Msgsig.ps_body with
  | Msgsig.Bnone -> ()
  | b -> Fmt.pf fmt "@\n    response: %a" Msgsig.pp_body_sig b);
  (match tr.tr_response.Msgsig.ps_consumers with
  | [] -> ()
  | cs ->
      Fmt.pf fmt "@\n    consumers: %a"
        (Fmt.list ~sep:Fmt.comma (Fmt.of_to_string Msgsig.consumer_to_string))
        cs);
  List.iter
    (fun (d : Txn.dep) ->
      Fmt.pf fmt "@\n    dep: #%d %s -> %s%s" d.Txn.dep_from_tx
        (String.concat "." d.Txn.dep_from_path)
        d.Txn.dep_to_field
        (match d.Txn.dep_via with Some v -> " via " ^ v | None -> ""))
    tr.tr_deps

let pp fmt t =
  Fmt.pf fmt "=== %s: %d transactions, %d DPs, slices %.1f%% of %d stmts, %.2fs ===@\n"
    t.rp_app
    (List.length t.rp_transactions)
    t.rp_dp_count (100.0 *. t.rp_slice_fraction) t.rp_total_stmts t.rp_elapsed_s;
  List.iter (fun tr -> Fmt.pf fmt "  %a@\n" pp_transaction tr) t.rp_transactions;
  match t.rp_degradations with
  | [] -> ()
  | ds ->
      Fmt.pf fmt "  degradations:@\n";
      List.iter
        (fun d -> Fmt.pf fmt "    %a@\n" Resilience.Degrade.pp_degradation d)
        ds
