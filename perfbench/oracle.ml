(* The reference every app result is checked against.  It comes from the
   app's spec and from the paper, never from the program's output: per
   HTTP method, the number of requests the report reconstructs must equal
   the spec's statically supported endpoints of that method, and for the
   Table-1 apps also the paper's Extractocol column. *)

module Corpus = Extr_corpus.Corpus
module Spec = Extr_corpus.Spec
module Synth = Extr_corpus.Synth
module Http = Extr_httpmodel.Http
module Json = Extr_httpmodel.Json
module Runner = Extr_eval.Runner

let methods = [ Http.GET; Http.POST; Http.PUT; Http.DELETE ]

type expected = {
  ex_spec : int list;  (** supported endpoints per method *)
  ex_paper : int list option;  (** Table 1's Extractocol column *)
}

let expected (e : Corpus.entry) =
  let supported = Spec.statically_visible e.Corpus.c_app in
  let per_method m =
    List.length
      (List.filter (fun (ep : Spec.endpoint) -> ep.Spec.e_meth = m) supported)
  in
  let extractocol (n, _, _) = n in
  {
    ex_spec = List.map per_method methods;
    ex_paper =
      Option.map
        (fun (r : Synth.row) ->
          List.map extractocol
            [ r.Synth.t_get; r.Synth.t_post; r.Synth.t_put; r.Synth.t_delete ])
        e.Corpus.c_row;
  }

(* Per-method request counts of a serialized report; [None] when the
   report does not parse as one. *)
let report_counts data =
  match Json.of_string_opt data with
  | None -> None
  | Some j -> (
      match Json.member "transactions" j with
      | Some (Json.List txs) ->
          let meth tx =
            match Json.find_path [ "request"; "method" ] tx with
            | Some (Json.Str s) -> s
            | _ -> ""
          in
          let per_method m =
            let name = Http.meth_to_string m in
            List.length (List.filter (fun tx -> meth tx = name) txs)
          in
          Some (List.map per_method methods)
      | _ -> None)

(* One app result of a [Runner.run] pass.  Degraded, quarantined and wrong
   results all fail; [cached] is whether the workload expects a cache
   hit.  On a hit the counts are read from the entry the cache served. *)
let check ~cached ex (r : Runner.app_result) =
  r.Runner.ar_status = Runner.Ok
  && r.Runner.ar_cached = cached
  &&
  match Option.bind r.Runner.ar_report_json report_counts with
  | None -> false
  | Some counts ->
      counts = ex.ex_spec
      && match ex.ex_paper with None -> true | Some p -> counts = p

(* Failures of a whole pass: results are in corpus order; a missing
   result (an interrupted run) counts as a failure. *)
let failures ~cached exs (results : Runner.app_result list) =
  let rec go acc exs rs =
    match (exs, rs) with
    | [], _ -> acc
    | _ :: exs, [] -> go (acc + 1) exs []
    | ex :: exs, r :: rs -> go (if check ~cached ex r then acc else acc + 1) exs rs
  in
  go 0 exs results
