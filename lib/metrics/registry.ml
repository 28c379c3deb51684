(* aqmetrics registry: process-wide named metric families, per-domain
   flat int arrays for the hot path.

   Registration (finding a family, binding a series of labels to a slot)
   is a cold path under one global mutex; call sites do it once when a
   component is created and keep the returned cell.  An increment is then
   one unboxed int store into the calling domain's flat array — no
   allocation, no hashing, no atomics — so the counters can stay on in
   production runs and benchmarks alike.

   Each domain owns its own array (created lazily through DLS); arrays of
   finished domains stay registered, so a snapshot after a [--jobs N]
   fan-out merges every worker's contribution by summation.  Sums are
   independent of which domain ran which job, and the snapshot is sorted
   by (name, labels), so exported metrics are byte-identical at any
   parallelism degree. *)

type kind = Counter | Gauge | Histogram

(* Histogram series occupy [2 + hbuckets] consecutive slots:
   [count; sum; bucket_0 .. bucket_(hbuckets-1)] where bucket k counts
   observations v with 2^k <= v < 2^(k+1) (v <= 1 lands in bucket 0). *)
let hbuckets = 62

type family = {
  f_name : string;
  f_help : string;
  f_kind : kind;
  f_label_names : string list; (* sorted *)
  mutable f_series : (string list * int) list; (* label values -> base slot *)
}

type store = { mutable a : int array }

(* ---- global state (all mutation under [mu]) ---- *)

let mu = Mutex.create ()
let families : (string, family) Hashtbl.t = Hashtbl.create 64
let next_slot = ref 0
let stores : store list ref = ref []

let store_key : store Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let s = { a = Array.make 256 0 } in
      Mutex.lock mu;
      stores := s :: !stores;
      Mutex.unlock mu;
      s)

let ensure_size (s : store) n =
  if n > Array.length s.a then begin
    let na = Array.make (max n (2 * Array.length s.a)) 0 in
    Array.blit s.a 0 na 0 (Array.length s.a);
    s.a <- na
  end

(* ---- registration (cold path) ---- *)

let canonical labels =
  List.sort (fun (a, _) (b, _) -> String.compare a b) labels

let family_of ~kind ~help ~label_names name =
  match Hashtbl.find_opt families name with
  | Some f ->
      if f.f_kind <> kind then
        invalid_arg
          (Printf.sprintf "Metrics: family %S re-registered with another kind"
             name);
      if f.f_label_names <> label_names then
        invalid_arg
          (Printf.sprintf
             "Metrics: family %S re-registered with other label names" name);
      f
  | None ->
      let f =
        { f_name = name; f_help = help; f_kind = kind; f_label_names = label_names;
          f_series = [] }
      in
      Hashtbl.add families name f;
      f

let slots_per_series = function
  | Counter | Gauge -> 1
  | Histogram -> 2 + hbuckets

let series_slot f label_values =
  match List.assoc_opt label_values f.f_series with
  | Some slot -> slot
  | None ->
      let slot = !next_slot in
      next_slot := slot + slots_per_series f.f_kind;
      f.f_series <- (label_values, slot) :: f.f_series;
      slot

let check_name name =
  if name = "" then invalid_arg "Metrics: empty family name";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> ()
      | _ ->
          invalid_arg
            (Printf.sprintf "Metrics: family name %S: invalid character" name))
    name

let register ~kind ?(help = "") ?(labels = []) name =
  check_name name;
  let labels = canonical labels in
  let label_names = List.map fst labels in
  let label_values = List.map snd labels in
  Mutex.lock mu;
  let slot =
    match
      let f = family_of ~kind ~help ~label_names name in
      series_slot f label_values
    with
    | slot ->
        Mutex.unlock mu;
        slot
    | exception e ->
        Mutex.unlock mu;
        raise e
  in
  let st = Domain.DLS.get store_key in
  ensure_size st (slot + slots_per_series kind);
  (st, slot)

type cell = { st : store; slot : int }
type hcell = { hst : store; hslot : int }

let counter ?help ?labels name =
  let st, slot = register ~kind:Counter ?help ?labels name in
  { st; slot }

let gauge ?help ?labels name =
  let st, slot = register ~kind:Gauge ?help ?labels name in
  { st; slot }

let histogram ?help ?labels name =
  let st, slot = register ~kind:Histogram ?help ?labels name in
  { hst = st; hslot = slot }

(* ---- hot path ---- *)

let[@inline] incr c =
  let a = c.st.a in
  Array.unsafe_set a c.slot (Array.unsafe_get a c.slot + 1)

let[@inline] add c n =
  let a = c.st.a in
  Array.unsafe_set a c.slot (Array.unsafe_get a c.slot + n)

let[@inline] set c v = Array.unsafe_set c.st.a c.slot v
let[@inline] get c = Array.unsafe_get c.st.a c.slot

let bucket_of v =
  if v <= 1 then 0
  else begin
    let k = ref 0 and x = ref (v lsr 1) in
    while !x > 0 do
      Stdlib.incr k;
      x := !x lsr 1
    done;
    min (!k) (hbuckets - 1)
  end

let observe h v =
  let v = if v < 0 then 0 else v in
  let a = h.hst.a and s = h.hslot in
  Array.unsafe_set a s (Array.unsafe_get a s + 1);
  Array.unsafe_set a (s + 1) (Array.unsafe_get a (s + 1) + v);
  let b = s + 2 + bucket_of v in
  Array.unsafe_set a b (Array.unsafe_get a b + 1)

(* ---- snapshot (merged over every domain's store, deterministic) ---- *)

type sample = {
  s_name : string;
  s_help : string;
  s_kind : kind;
  s_labels : (string * string) list;
  s_value : int; (* counter/gauge value; histogram sum *)
  s_count : int; (* histogram observations; 0 for counter/gauge *)
  s_buckets : (int * int) list; (* histogram (bucket-exponent, count), nonzero *)
}

let merged_slot all slot =
  List.fold_left
    (fun acc (s : store) ->
      if slot < Array.length s.a then acc + s.a.(slot) else acc)
    0 all

let snapshot () =
  Mutex.lock mu;
  let fams = Hashtbl.fold (fun _ f acc -> f :: acc) families [] in
  let all = !stores in
  let out =
    List.concat_map
      (fun f ->
        List.map
          (fun (label_values, slot) ->
            let labels = List.combine f.f_label_names label_values in
            match f.f_kind with
            | Counter | Gauge ->
                {
                  s_name = f.f_name;
                  s_help = f.f_help;
                  s_kind = f.f_kind;
                  s_labels = labels;
                  s_value = merged_slot all slot;
                  s_count = 0;
                  s_buckets = [];
                }
            | Histogram ->
                let count = merged_slot all slot in
                let sum = merged_slot all (slot + 1) in
                let buckets = ref [] in
                for k = hbuckets - 1 downto 0 do
                  let n = merged_slot all (slot + 2 + k) in
                  if n > 0 then buckets := (k, n) :: !buckets
                done;
                {
                  s_name = f.f_name;
                  s_help = f.f_help;
                  s_kind = Histogram;
                  s_labels = labels;
                  s_value = sum;
                  s_count = count;
                  s_buckets = !buckets;
                })
          f.f_series)
      fams
  in
  Mutex.unlock mu;
  List.sort
    (fun a b ->
      match String.compare a.s_name b.s_name with
      | 0 -> compare a.s_labels b.s_labels
      | c -> c)
    out

let reset () =
  Mutex.lock mu;
  List.iter (fun (s : store) -> Array.fill s.a 0 (Array.length s.a) 0) !stores;
  Mutex.unlock mu

(* Sum of the series of one family across labels (tests, smoke). *)
let value ?(labels = []) name =
  let labels = canonical labels in
  let want = List.map snd labels in
  List.fold_left
    (fun acc s ->
      if s.s_name = name && (labels = [] || List.map snd s.s_labels = want)
      then acc + s.s_value
      else acc)
    0 (snapshot ())
