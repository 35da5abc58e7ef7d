(* Taint facts: the data-flow abstraction tracked by both propagation
   directions.  Locals are method-scoped access paths of depth ≤ 1 (field
   sensitivity as in FlowDroid's access paths); instance fields additionally
   get a field-based global abstraction so heap flows across asynchronous
   boundaries are representable; SQLite tables are pseudo-stores so
   database-mediated dependencies (TED case study) can be tracked. *)

module Ir = Extr_ir.Types

type t =
  | Flocal of Ir.method_id * string * string list
      (** local access path: method, variable name, field chain (≤1) *)
  | Ffield of string * string  (** any-receiver instance field: class, field *)
  | Fstatic of string * string  (** static field *)
  | Fdb of string  (** SQLite table pseudo-store *)

(* Monomorphic comparison in the same order [Stdlib.compare] induces
   (constructor tag, then fields left to right; [[]] sorts before any
   cons, as immediates do before blocks) — every set operation in both
   propagation engines funnels through this, and the generic structural
   walk was a measurable constant on large fact sets. *)
let compare a b =
  match (a, b) with
  | Flocal (m1, v1, p1), Flocal (m2, v2, p2) ->
      let c = Ir.Method_id.compare m1 m2 in
      if c <> 0 then c
      else
        let c = String.compare v1 v2 in
        if c <> 0 then c else List.compare String.compare p1 p2
  | Flocal _, (Ffield _ | Fstatic _ | Fdb _) -> -1
  | (Ffield _ | Fstatic _ | Fdb _), Flocal _ -> 1
  | Ffield (c1, f1), Ffield (c2, f2) ->
      let c = String.compare c1 c2 in
      if c <> 0 then c else String.compare f1 f2
  | Ffield _, (Fstatic _ | Fdb _) -> -1
  | (Fstatic _ | Fdb _), Ffield _ -> 1
  | Fstatic (c1, f1), Fstatic (c2, f2) ->
      let c = String.compare c1 c2 in
      if c <> 0 then c else String.compare f1 f2
  | Fstatic _, Fdb _ -> -1
  | Fdb _, Fstatic _ -> 1
  | Fdb t1, Fdb t2 -> String.compare t1 t2

let pp fmt = function
  | Flocal (m, v, []) -> Format.fprintf fmt "%a:%s" Ir.Method_id.pp m v
  | Flocal (m, v, fs) ->
      Format.fprintf fmt "%a:%s.%s" Ir.Method_id.pp m v (String.concat "." fs)
  | Ffield (c, f) -> Format.fprintf fmt "<%s:%s>" c f
  | Fstatic (c, f) -> Format.fprintf fmt "<static %s:%s>" c f
  | Fdb t -> Format.fprintf fmt "<db:%s>" t

module Set = Set.Make (struct
  type nonrec t = t

  let compare = compare
end)

module Map = Map.Make (struct
  type nonrec t = t

  let compare = compare
end)

let local mid v = Flocal (mid, v.Ir.vname, [])
let local_path mid v fname = Flocal (mid, v.Ir.vname, [ fname ])

(** Is any access path rooted at (method, variable name) tainted?  Facts
    sharing a root are contiguous in the set order and the bare root
    [Flocal (mid, name, [])] is their minimum, so one ordered lookup
    replaces a whole-set scan — this predicate runs on every statement
    visit of both propagation engines. *)
let root_tainted s mid name =
  let root = Flocal (mid, name, []) in
  match Set.find_first_opt (fun f -> compare f root >= 0) s with
  | Some (Flocal (m, n, _)) -> Ir.Method_id.equal m mid && n = name
  | Some _ | None -> false

(** Is the plain local [v] (whole object) tainted in [s]? *)
let local_tainted s mid (v : Ir.var) = Set.mem (local mid v) s

(** Is any access path rooted at local [v] tainted (the object itself or
    one of its fields)? *)
let local_or_path_tainted s mid (v : Ir.var) = root_tainted s mid v.Ir.vname

(** The global (field/static/db) facts of a set.  Globals sort after
    every [Flocal], so this is an ordered split, not a filter scan. *)
let globals s =
  match Set.max_elt_opt s with
  | None | Some (Flocal _) -> Set.empty
  | Some _ ->
      let _, present, above = Set.split (Ffield ("", "")) s in
      if present then Set.add (Ffield ("", "")) above else above

(** Is the value tainted (constants never are)? *)
let value_tainted s mid = function
  | Ir.Const _ -> false
  | Ir.Local v -> local_tainted s mid v

(** Remove every fact rooted at local [v] (strong update on redefinition).
    Facts sharing a root are contiguous in the set order, so instead of a
    whole-set filter (which reallocates the set on every assignment visit)
    we fast-path the common nothing-to-kill case — returning [s] itself, so
    physical equality survives for downstream subset checks — and otherwise
    strip the at-most-handful of matching facts with ordered lookups. *)
let kill_local s mid (v : Ir.var) =
  let name = v.Ir.vname in
  let root = Flocal (mid, name, []) in
  let rec strip s =
    match Set.find_first_opt (fun f -> compare f root >= 0) s with
    | Some (Flocal (m, n, _) as f) when Ir.Method_id.equal m mid && n = name ->
        strip (Set.remove f s)
    | Some _ | None -> s
  in
  if root_tainted s mid name then strip s else s

(** Instance-field facts present in a set (used by the async heuristic to
    find heap objects that carry request parts). *)
let field_facts s =
  Set.fold
    (fun f acc ->
      match f with
      | Ffield (c, n) -> (c, n) :: acc
      | Fstatic _ | Flocal _ | Fdb _ -> acc)
    s []

(* ------------------------------------------------------------------ *)
(* Fact-keyed maps                                                    *)
(* ------------------------------------------------------------------ *)

(** Fold the bindings rooted at (method, variable name): contiguous in
    the key order, so one ordered lookup finds the first, and a miss —
    the common case — allocates no enumeration. *)
let fold_root f m mid name acc =
  let root = Flocal (mid, name, []) in
  let rooted = function
    | Flocal (m', n, _) -> Ir.Method_id.equal m' mid && String.equal n name
    | Ffield _ | Fstatic _ | Fdb _ -> false
  in
  match Map.find_first_opt (fun k -> compare k root >= 0) m with
  | Some (k, _) when rooted k ->
      let rec go seq acc =
        match seq () with
        | Seq.Cons ((k, v), rest) when rooted k -> go rest (f k v acc)
        | Seq.Cons _ | Seq.Nil -> acc
      in
      go (Map.to_seq_from root m) acc
  | Some _ | None -> acc

(** The bindings of global facts — an ordered split, as {!globals}. *)
let globals_map m =
  match Map.max_binding_opt m with
  | None | Some (Flocal _, _) -> Map.empty
  | Some _ -> (
      let first = Ffield ("", "") in
      let _, present, above = Map.split first m in
      match present with Some v -> Map.add first v above | None -> above)

(** Remove every binding rooted at the local, as {!kill_local}. *)
let kill_local_map m mid (v : Ir.var) =
  fold_root (fun k _ acc -> Map.remove k acc) m mid v.Ir.vname m
