(* Named counters, gauges and histograms with labels.  Handles capture
   their registry; every mutation first reads one mutable [enabled] bool,
   which is the whole disabled-path cost. *)

type labels = (string * string) list

type kind = [ `Counter | `Gauge | `Histogram ]

type series = {
  se_labels : labels;
  mutable se_count : int;
  mutable se_sum : float;
  se_bucket_counts : int array;  (* one slot per bound, +1 for overflow *)
}

type metric = {
  m_name : string;
  m_kind : kind;
  m_help : string;
  m_buckets : float array;
  m_series : (string, series) Hashtbl.t;  (* rendered label key -> series *)
}

type t = {
  mutable enabled : bool;
  metrics : (string, metric) Hashtbl.t;
}

type counter = metric * t
type gauge = metric * t
type histogram = metric * t

let create ?(enabled = false) () = { enabled; metrics = Hashtbl.create 32 }
let default = create ()
let set_enabled t b = t.enabled <- b
let is_enabled t = t.enabled

let reset t =
  Hashtbl.iter (fun _ m -> Hashtbl.reset m.m_series) t.metrics

(* The default ladder covers sizes (statements, facts) and latencies in
   microseconds without per-metric tuning. *)
let default_buckets =
  [ 1.; 2.; 5.; 10.; 20.; 50.; 100.; 200.; 500.; 1_000.; 2_000.; 5_000.;
    10_000.; 20_000.; 50_000.; 100_000. ]

let register t name kind help buckets : metric =
  match Hashtbl.find_opt t.metrics name with
  | Some m when m.m_kind = kind -> m
  | Some _ ->
      invalid_arg (Printf.sprintf "Metrics: %s re-registered with a different kind" name)
  | None ->
      let m =
        {
          m_name = name;
          m_kind = kind;
          m_help = help;
          m_buckets = Array.of_list (List.sort_uniq compare buckets);
          m_series = Hashtbl.create 4;
        }
      in
      Hashtbl.replace t.metrics name m;
      m

let counter ?(registry = default) ?(help = "") name : counter =
  (register registry name `Counter help [], registry)

let gauge ?(registry = default) ?(help = "") name : gauge =
  (register registry name `Gauge help [], registry)

let histogram ?(registry = default) ?(help = "") ?(buckets = default_buckets)
    name : histogram =
  (register registry name `Histogram help buckets, registry)

let label_key (labels : labels) =
  String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ v) labels)

let series_of m labels =
  let labels = List.sort compare labels in
  let key = label_key labels in
  match Hashtbl.find_opt m.m_series key with
  | Some s -> s
  | None ->
      let s =
        {
          se_labels = labels;
          se_count = 0;
          se_sum = 0.0;
          se_bucket_counts = Array.make (Array.length m.m_buckets + 1) 0;
        }
      in
      Hashtbl.replace m.m_series key s;
      s

let incr ?(labels = []) ?(by = 1) ((m, t) : counter) =
  if t.enabled then begin
    let s = series_of m labels in
    s.se_count <- s.se_count + by;
    s.se_sum <- s.se_sum +. float_of_int by
  end

let set ?(labels = []) ((m, t) : gauge) v =
  if t.enabled then begin
    let s = series_of m labels in
    s.se_count <- s.se_count + 1;
    s.se_sum <- v
  end

let bucket_index buckets v =
  let n = Array.length buckets in
  let rec find i = if i >= n || v <= buckets.(i) then i else find (i + 1) in
  find 0

let observe ?(labels = []) ((m, t) : histogram) v =
  if t.enabled then begin
    let s = series_of m labels in
    s.se_count <- s.se_count + 1;
    s.se_sum <- s.se_sum +. v;
    let i = bucket_index m.m_buckets v in
    s.se_bucket_counts.(i) <- s.se_bucket_counts.(i) + 1
  end

type sample = {
  sa_name : string;
  sa_kind : kind;
  sa_help : string;
  sa_labels : labels;
  sa_count : int;
  sa_sum : float;
  sa_buckets : (float * int) list;
}

let sample_of m (s : series) =
  let buckets =
    match m.m_kind with
    | `Histogram ->
        (* Cumulative counts, Prometheus-style; the overflow slot is +inf. *)
        let acc = ref 0 in
        let le =
          Array.to_list
            (Array.mapi
               (fun i bound ->
                 acc := !acc + s.se_bucket_counts.(i);
                 (bound, !acc))
               m.m_buckets)
        in
        le @ [ (infinity, s.se_count) ]
    | `Counter | `Gauge -> []
  in
  {
    sa_name = m.m_name;
    sa_kind = m.m_kind;
    sa_help = m.m_help;
    sa_labels = s.se_labels;
    sa_count = s.se_count;
    sa_sum = s.se_sum;
    sa_buckets = buckets;
  }

let snapshot t : sample list =
  Hashtbl.fold
    (fun _ m acc ->
      Hashtbl.fold (fun _ s acc -> sample_of m s :: acc) m.m_series acc)
    t.metrics []
  |> List.sort (fun a b ->
         match compare a.sa_name b.sa_name with
         | 0 -> compare a.sa_labels b.sa_labels
         | c -> c)

(* Fold a snapshot taken in another registry (typically a forked worker
   process) into [t].  Registration is by name, so a metric the samples
   mention that [t] has never seen is registered on the fly with the
   sample's own bucket bounds.  Merging bypasses the [enabled] flag:
   the samples were recorded under the worker's flag, and dropping them
   here would silently lose that work. *)
let merge_samples t (samples : sample list) =
  List.iter
    (fun s ->
      let bounds =
        List.filter_map
          (fun (b, _) -> if Float.is_finite b then Some b else None)
          s.sa_buckets
      in
      let m = register t s.sa_name s.sa_kind s.sa_help bounds in
      let sr = series_of m s.sa_labels in
      match s.sa_kind with
      | `Gauge ->
          (* Labelled max, not last-win: worker deltas arrive in pool
             completion order, which depends on scheduling — a gauge
             that kept the latest arrival would make the merged registry
             nondeterministic under --jobs N.  Max is commutative and
             associative, so any arrival order yields the same value.
             Gauges that must not be max-merged should carry a
             distinguishing label (the per-app gauges already do). *)
          if s.sa_count > 0 then
            sr.se_sum <-
              (if sr.se_count = 0 then s.sa_sum
               else Float.max sr.se_sum s.sa_sum);
          sr.se_count <- sr.se_count + s.sa_count
      | `Counter ->
          sr.se_count <- sr.se_count + s.sa_count;
          sr.se_sum <- sr.se_sum +. s.sa_sum
      | `Histogram ->
          sr.se_count <- sr.se_count + s.sa_count;
          sr.se_sum <- sr.se_sum +. s.sa_sum;
          (* Snapshots carry cumulative counts; decumulate back into the
             per-bound slots (the overflow slot is the +inf entry). *)
          let prev = ref 0 in
          List.iter
            (fun (bound, cum) ->
              let i =
                if Float.is_finite bound then bucket_index m.m_buckets bound
                else Array.length m.m_buckets
              in
              sr.se_bucket_counts.(i) <-
                sr.se_bucket_counts.(i) + (cum - !prev);
              prev := cum)
            s.sa_buckets)
    samples

(* Percentile estimation from the cumulative bucket counts, in the style
   of Prometheus' histogram_quantile: find the bucket the rank falls in
   and interpolate linearly inside it.  The overflow (+inf) bucket has
   no upper edge, so ranks landing there report the largest finite
   bound — a lower bound on the true percentile, clearly marked by
   being exactly a bucket edge. *)
let percentile (s : sample) q =
  if s.sa_kind <> `Histogram || s.sa_count = 0 || s.sa_buckets = [] then None
  else begin
    let q = Float.max 0.0 (Float.min 100.0 q) in
    let rank = q /. 100.0 *. float_of_int s.sa_count in
    let finite_max =
      List.fold_left
        (fun acc (b, _) -> if Float.is_finite b then Float.max acc b else acc)
        0.0 s.sa_buckets
    in
    let rec go lo_bound lo_cum = function
      | [] -> Some finite_max
      | (bound, cum) :: rest ->
          if float_of_int cum >= rank && cum > lo_cum then
            if Float.is_finite bound then
              (* Interpolate between this bucket's edges by the rank's
                 position among its occupants. *)
              let frac =
                (rank -. float_of_int lo_cum)
                /. float_of_int (cum - lo_cum)
              in
              Some (lo_bound +. ((bound -. lo_bound) *. Float.max 0.0 frac))
            else Some finite_max
          else go (if Float.is_finite bound then bound else lo_bound) cum rest
    in
    go 0.0 0 s.sa_buckets
  end

let find ?(labels = []) t name =
  let labels = List.sort compare labels in
  match Hashtbl.find_opt t.metrics name with
  | None -> None
  | Some m ->
      Option.map (sample_of m) (Hashtbl.find_opt m.m_series (label_key labels))

let value ?labels t name =
  match find ?labels t name with
  | Some { sa_kind = `Counter; sa_count; _ } -> float_of_int sa_count
  | Some s -> s.sa_sum
  | None -> 0.0
