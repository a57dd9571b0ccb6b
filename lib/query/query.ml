(** Indexed compatibility query engine: precomputed structures over an
    immutable {!Store.t} that answer the paper's two headline
    questions — API importance (Appendix A.1) and weighted
    completeness of an arbitrary API subset (Appendix A.2) — without
    touching the analysis pipeline again.

    Three precomputations carry every query:

    - {b survival products}. For each API, the product
      [prod (1 - p_pkg)] over its dependent packages, folded in the
      store's dependents order — the exact arithmetic of
      {!Lapis_metrics.Importance.importance} — so importance is an
      O(1) lookup that is bit-identical to the closed-form oracle.

    - {b packed closure bitsets}. Completeness propagates support
      through dependencies to a fixed point; that fixpoint equals
      "every package in my transitive dependency closure is directly
      supported". We condense the dependency graph into strongly
      connected components (iterative Tarjan, emitted in reverse
      topological order) and give every component a {!Bitset} over the
      dense API universe holding every API required anywhere in its
      closure. An arbitrary subset query then costs one word-wise
      subset test per component — a handful of machine words instead
      of an element-wise scan — plus one gated sweep over the package
      probability array in store order. A syscall-specialized copy of
      the bitsets (over the syscall-number universe) backs the hot
      [eval_syscalls] path.

    - {b the Section 3 ranking}, computed once with the oracle's own
      comparator over index-derived values.

    Every structure above also exists {b per phase}: the temporal
    attribution of {!Lapis_analysis.Phase} gives each package an
    init-phase and a serving-phase requirement set, and the index
    carries packed closure classes (with their own universal cores)
    and survival products for both. A query with [phase = All] walks
    the exact arrays an unphased build would have produced, so
    existing results are bit-identical; [Init]/[Serving] swap in the
    phased classes and nothing else.

    The weighted sums replicate the oracle's accumulation order
    (ascending package index, total weight folded over the full row
    array), so results are equal to the closed-form implementations
    bit for bit, not merely within tolerance — the test suite asserts
    [<= 1e-12] but the design target is exact. A scattered query
    ({!eval_syscalls_partial} summed over {!shard_ranges}, the merge a
    fleet router performs) is the one deliberate exception: float
    addition is not associative, so it is held to the 1e-12 tolerance
    instead.

    Index construction interns every API once, turning each package's
    requirement sets into arrays of dense ids that every later plane
    reads without another hash lookup. Direct requirement bitsets fan
    out over {!Lapis_perf.Parmap} by package range and merge
    deterministically (each package's bits are independent), so the
    built index is bit-identical to a sequential build. *)

open Lapis_apidb
module Store = Lapis_store.Store
module Snapshot = Lapis_store.Snapshot
module Wire = Lapis_store.Snapshot.Wire
module Footprint = Lapis_analysis.Footprint
module Stage = Lapis_perf.Stage
module Bitset = Lapis_perf.Bitset
module Parmap = Lapis_perf.Parmap

type ranked = {
  rk_nr : int;
  rk_name : string;
  rk_importance : float;
  rk_unweighted_elf : float;
}

type phase = Init | Serving | All

(* Distinct closure classes: SCCs whose closures are equal share one
   class, so a query runs one subset test per *distinct* closure
   (typically fewer than packages), then one gated sweep. Class rows
   live unwrapped in one flat row-major word array (row [c] at
   [c * nw]) so the hot loop walks contiguous memory, and [ci_common]
   holds the intersection of every class — the universal core: a
   query that misses any core bit can satisfy no class at all, so
   one word-wise test against the core answers most subsets without
   touching the class rows. One such index exists per (phase,
   universe) pair: the full API universe and the syscall-number
   specialization, for each of All/Init/Serving. *)
type class_index = {
  ci_nc : int;  (* distinct closure classes *)
  ci_nw : int;  (* words per class row *)
  ci_flat : Bitset.words;  (* ci_nc * ci_nw, row-major *)
  ci_common : int array;  (* ci_nw words: bits required everywhere *)
  ci_pkg_class : Bitset.words;  (* pkg slice index -> class row *)
}

(* A binary's resolved footprint split by phase — the per-binary data
   the seccomp generator consumes, carried by the index so a format-4
   image can serve [lapis seccomp] without the row snapshot. *)
type bin_sets = {
  bs_digest : Digest.t;
  bs_all : Api.Set.t;
  bs_init : Api.Set.t;
  bs_serving : Api.Set.t;
}

(* The index owns everything it answers from — no [Store.t] reference
   survives construction. Dependent-package lists are flattened into a
   CSR pair ([deps_off]/[deps_dat]); per-binary footprints are kept as
   a lazily decoded array (the bins section of an image is varint-
   encoded, and the server never asks for it). Numeric planes sit
   behind {!Bitset.words}/{!Bitset.floats} so a mapped image and a
   fresh build run the same hot loops. *)
type t = {
  n : int;  (* packages in the whole world, sliced or not *)
  slice_lo : int;  (* per-package planes cover [slice_lo, slice_hi) *)
  slice_hi : int;
  mapped : bool;  (* true when backed by a mapped format-4 image *)
  meta_seed : int;
  meta_source_key : string;
  total_installs : int;
  n_bins : int;
  probs : Bitset.floats;  (* pkg slice index -> install probability *)
  names : string array;  (* pkg slice index -> name *)
  api_ids : int Api.Tbl.t;  (* interning: api -> dense id *)
  apis : Api.t array;  (* id -> api *)
  survival : Bitset.floats;  (* id -> prod(1 - p) over dependents *)
  survival_init : Bitset.floats;  (* same, over init-phase requirers *)
  survival_serving : Bitset.floats;
  dep_count : Bitset.words;  (* id -> number of dependent packages *)
  elf_count : Bitset.words;  (* id -> packages using it from own ELFs *)
  deps_off : Bitset.words;  (* id -> offset into deps_dat; n_apis+1 *)
  deps_dat : Bitset.words;  (* dependent pkg ids, store list order *)
  n_comps : int;  (* SCCs of the dependency graph *)
  req : class_index;  (* API universe, whole footprints *)
  sys : class_index;  (* syscall-nr universe, whole footprints *)
  req_init : class_index;
  sys_init : class_index;
  req_serving : class_index;
  sys_serving : class_index;
  max_nr : int;  (* largest syscall nr required by any package *)
  ranking : ranked array;  (* Section 3 order, most important first *)
  den : float;  (* total popcon weight, oracle fold order *)
  bins : (bin_sets array, Snapshot.error) result Lazy.t;
}

let req_of t = function
  | All -> t.req
  | Init -> t.req_init
  | Serving -> t.req_serving

let sys_of t = function
  | All -> t.sys
  | Init -> t.sys_init
  | Serving -> t.sys_serving

let phase_to_string = function
  | Init -> "init"
  | Serving -> "serving"
  | All -> "all"

let phase_of_string = function
  | "init" -> Ok Init
  | "serving" -> Ok Serving
  | "all" | "" -> Ok All
  | s -> Error (Printf.sprintf "unknown phase %S (init|serving|all)" s)

(* ------------------------------------------------------------------ *)
(* Index construction                                                  *)
(* ------------------------------------------------------------------ *)

(* Iterative Tarjan SCC over [succ]. Returns [comp] (node -> component
   id) and the component count; components are numbered in emission
   order, which for Tarjan is reverse topological: every component
   reachable from component [c] has an id [< c]. *)
let tarjan n (succ : int array array) =
  let index = Array.make n (-1) in
  let low = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] in
  let comp = Array.make n (-1) in
  let n_comps = ref 0 in
  let counter = ref 0 in
  let frames = Stack.create () in
  for root = 0 to n - 1 do
    if index.(root) < 0 then begin
      index.(root) <- !counter;
      low.(root) <- !counter;
      incr counter;
      stack := root :: !stack;
      on_stack.(root) <- true;
      Stack.push (root, ref 0) frames;
      while not (Stack.is_empty frames) do
        let v, next_edge = Stack.top frames in
        if !next_edge < Array.length succ.(v) then begin
          let w = succ.(v).(!next_edge) in
          incr next_edge;
          if index.(w) < 0 then begin
            index.(w) <- !counter;
            low.(w) <- !counter;
            incr counter;
            stack := w :: !stack;
            on_stack.(w) <- true;
            Stack.push (w, ref 0) frames
          end
          else if on_stack.(w) then low.(v) <- min low.(v) index.(w)
        end
        else begin
          ignore (Stack.pop frames);
          (match Stack.top_opt frames with
           | Some (u, _) -> low.(u) <- min low.(u) low.(v)
           | None -> ());
          if low.(v) = index.(v) then begin
            let cid = !n_comps in
            incr n_comps;
            let finished = ref false in
            while not !finished do
              match !stack with
              | w :: rest ->
                stack := rest;
                on_stack.(w) <- false;
                comp.(w) <- cid;
                if w = v then finished := true
              | [] -> assert false
            done
          end
        end
      done
    end
  done;
  (comp, !n_comps)

(* [lo, hi) index ranges for the Parmap fan-outs below: coarse enough
   that per-range overhead is negligible, fine enough to balance. *)
let ranges n =
  let step = max 256 (n / 64) in
  let rec go lo acc =
    if lo >= n then List.rev acc
    else go (lo + step) ((lo, min n (lo + step)) :: acc)
  in
  go 0 []

(* Section 3 ranking with the oracle's comparator over index-derived
   values. Shared by the builder and the image loader — both feed it
   the same survival/elf-count planes, so a loaded image reproduces
   the built ranking bit for bit. *)
let build_ranking ~n ~api_ids ~(survival : Bitset.floats)
    ~(elf_count : Bitset.words) =
  let importance_of_nr nr =
    match Api.Tbl.find_opt api_ids (Api.Syscall nr) with
    | Some id -> 1.0 -. Bitset.floats_get survival id
    | None -> 0.0
  in
  let unweighted_elf_of_nr nr =
    let k =
      match Api.Tbl.find_opt api_ids (Api.Syscall nr) with
      | Some id -> Bitset.words_get elf_count id
      | None -> 0
    in
    float_of_int k /. float_of_int n
  in
  Array.to_list Syscall_table.all
  |> List.map (fun (e : Syscall_table.entry) ->
         ( e.Syscall_table.nr,
           e.Syscall_table.name,
           importance_of_nr e.Syscall_table.nr,
           unweighted_elf_of_nr e.Syscall_table.nr ))
  |> List.sort (fun (na, _, ia, ua) (nb, _, ib, ub) ->
         match compare ib ia with
         | 0 -> (match compare ub ua with 0 -> compare na nb | c -> c)
         | c -> c)
  |> List.map (fun (nr, name, imp, uelf) ->
         {
           rk_nr = nr;
           rk_name = name;
           rk_importance = imp;
           rk_unweighted_elf = uelf;
         })
  |> Array.of_list

let index ?domains (store : Store.t) : t =
  Stage.time "query:index-build" @@ fun () ->
  let n = store.Store.n_packages in
  let probs = Array.map (fun p -> p.Store.pr_prob) store.Store.packages in
  let names = Array.map (fun p -> p.Store.pr_name) store.Store.packages in
  (* Intern every API reachable from any package footprint, and turn
     each package's four sets into arrays of dense ids on the way:
     the one hash lookup per (package, set, API) the whole build pays.
     Sequential: first-seen order defines the dense ids everything
     below shares. *)
  let api_ids = Api.Tbl.create 4096 in
  let rev_apis = ref [] in
  let n_apis = ref 0 in
  let intern api =
    match Api.Tbl.find_opt api_ids api with
    | Some id -> id
    | None ->
      let id = !n_apis in
      incr n_apis;
      Api.Tbl.add api_ids api id;
      rev_apis := api :: !rev_apis;
      id
  in
  let ids set =
    let a = Array.make (Api.Set.cardinal set) 0 in
    let k = ref 0 in
    Api.Set.iter
      (fun api ->
        a.(!k) <- intern api;
        incr k)
      set;
    a
  in
  (* Field order is interning order: [pr_apis], [pr_apis_elf], then
     the phased sets. Phased sets are subsets of [pr_apis] on
     pipeline-built stores, so they add no ids there (the dense
     universe — and with it every unphased structure — is unchanged);
     hand-built stores may violate the subset invariant and still get
     interned. *)
  let ids_all = Array.make n [||] and ids_elf = Array.make n [||] in
  let ids_init = Array.make n [||] and ids_serving = Array.make n [||] in
  Array.iteri
    (fun i (p : Store.pkg_row) ->
      ids_all.(i) <- ids p.Store.pr_apis;
      ids_elf.(i) <- ids p.Store.pr_apis_elf;
      ids_init.(i) <- ids p.Store.pr_init;
      ids_serving.(i) <- ids p.Store.pr_serving)
    store.Store.packages;
  let apis = Array.of_list (List.rev !rev_apis) in
  let n_apis = !n_apis in
  (* Requirer lists per API, built by prepending over ascending
     package order: descending indexes, the exact shape of the store's
     dependents lists (which [Store.build] accumulates the same way
     over [pr_apis]). Survival products fold them in that order — the
     same multiply sequence as the Importance oracle — so every plane
     is bit-identical to the closed form. *)
  let requirers (pkg_ids : int array array) =
    let reqrs : int list array = Array.make n_apis [] in
    Array.iteri
      (fun i row -> Array.iter (fun id -> reqrs.(id) <- i :: reqrs.(id)) row)
      pkg_ids;
    reqrs
  in
  let survival_of =
    Array.map (List.fold_left (fun acc i -> acc *. (1.0 -. probs.(i))) 1.0)
  in
  let dependents = requirers ids_all in
  let survival = survival_of dependents in
  let dep_count = Array.map List.length dependents in
  let elf_count = Array.make n_apis 0 in
  Array.iter
    (Array.iter (fun id -> elf_count.(id) <- elf_count.(id) + 1))
    ids_elf;
  let survival_init = survival_of (requirers ids_init) in
  let survival_serving = survival_of (requirers ids_serving) in
  (* Resolvable dependency edges and the SCC condensation — shared by
     every phase: temporal attribution changes which APIs a package
     requires, never which packages it depends on. *)
  let succ =
    Array.map
      (fun (p : Store.pkg_row) ->
        p.Store.pr_deps
        |> List.filter_map (Hashtbl.find_opt store.Store.pkg_index)
        |> Array.of_list)
      store.Store.packages
  in
  let comp, n_comps = tarjan n succ in
  let members = Array.make n_comps [] in
  for i = n - 1 downto 0 do
    members.(comp.(i)) <- i :: members.(comp.(i))
  done;
  let sys_nr =
    Array.map (function Api.Syscall nr -> nr | _ -> -1) apis
  in
  let max_nr = Array.fold_left (fun acc nr -> max acc nr) (-1) sys_nr in
  (* Collapse equal closures into classes: the per-query subset tests
     then run once per distinct closure instead of once per SCC. *)
  let dedup (bitsets : Bitset.t array) =
    let seen = Hashtbl.create 256 in
    let distinct = ref [] in
    let n_distinct = ref 0 in
    let class_of =
      Array.map
        (fun bits ->
          let k = Bitset.key bits in
          match Hashtbl.find_opt seen k with
          | Some c -> c
          | None ->
            let c = !n_distinct in
            incr n_distinct;
            Hashtbl.add seen k c;
            distinct := bits :: !distinct;
            c)
        bitsets
    in
    (Array.of_list (List.rev !distinct), class_of)
  in
  (* Flatten class rows and fold their intersection (the universal
     core). With zero classes the core is all-zero, which gates
     nothing — the eval loop then finds no passing class on its own. *)
  let flatten (classes : Bitset.t array) =
    let nc = Array.length classes in
    let nw = if nc = 0 then 0 else Array.length (Bitset.words classes.(0)) in
    let flat = Array.make (max 1 (nc * nw)) 0 in
    Array.iteri
      (fun c b -> Array.blit (Bitset.words b) 0 flat (c * nw) nw)
      classes;
    let common =
      if nc = 0 then Array.make (max 1 nw) 0
      else Array.copy (Bitset.words classes.(0))
    in
    Array.iter
      (fun b ->
        let w = Bitset.words b in
        for i = 0 to nw - 1 do
          common.(i) <- common.(i) land w.(i)
        done)
      classes;
    (nc, nw, flat, common)
  in
  (* One (API-universe, syscall-universe) class-index pair per phase.
     Direct requirement bitsets come from [pkg_ids], fanned out by
     package range (each package's bits are independent of every
     other's); closures, dedup and flattening run on them exactly as
     the unphased build always has — the [All] pair reads [pr_apis]
     through the same code path, so its arrays are bit-identical to
     the pre-phase index. *)
  let build_pair (pkg_ids : int array array) =
    let req = Array.make n (Bitset.create 0) in
    Parmap.map ?domains
      (fun (lo, hi) ->
        let rows = Array.make (hi - lo) (Bitset.create 0) in
        for i = lo to hi - 1 do
          let bits = Bitset.create n_apis in
          Array.iter (Bitset.add bits) pkg_ids.(i);
          rows.(i - lo) <- bits
        done;
        (lo, rows))
      (ranges n)
    |> List.iter (fun (lo, rows) -> Array.blit rows 0 req lo (Array.length rows));
    (* Closure per component, successors first (their ids are smaller):
       a word-wise union of the members' direct bits and the successor
       components' already-final closures. *)
    let comp_req = Array.make n_comps (Bitset.create 0) in
    for c = 0 to n_comps - 1 do
      let bits = Bitset.create n_apis in
      List.iter
        (fun i ->
          Bitset.union_into ~into:bits req.(i);
          Array.iter
            (fun j ->
              if comp.(j) <> c then
                Bitset.union_into ~into:bits comp_req.(comp.(j)))
            succ.(i))
        members.(c);
      comp_req.(c) <- bits
    done;
    (* Syscall-specialized copies over the number universe. *)
    let comp_sys =
      Array.map
        (fun bits ->
          let nrs = Bitset.create (max_nr + 1) in
          Bitset.iter
            (fun id -> if sys_nr.(id) >= 0 then Bitset.add nrs sys_nr.(id))
            bits;
          nrs)
        comp_req
    in
    let class_req, req_class_of_comp = dedup comp_req in
    let class_sys, sys_class_of_comp = dedup comp_sys in
    let mk classes class_of_comp =
      let nc, nw, flat, common = flatten classes in
      {
        ci_nc = nc;
        ci_nw = nw;
        ci_flat = Bitset.Words_heap flat;
        ci_common = common;
        ci_pkg_class =
          Bitset.Words_heap (Array.init n (fun i -> class_of_comp.(comp.(i))));
      }
    in
    (mk class_req req_class_of_comp, mk class_sys sys_class_of_comp)
  in
  let req_all, sys_all = build_pair ids_all in
  let req_init, sys_init = build_pair ids_init in
  let req_serving, sys_serving = build_pair ids_serving in
  let den = Array.fold_left (fun a p -> a +. p) 0.0 probs in
  (* Flatten the dependents lists into CSR form, preserving the
     store's list order exactly (it defines the survival fold order
     and the [dependents_ranked] pre-sort input). *)
  let deps_off = Array.make (n_apis + 1) 0 in
  for id = 0 to n_apis - 1 do
    deps_off.(id + 1) <- deps_off.(id) + dep_count.(id)
  done;
  let deps_dat = Array.make deps_off.(n_apis) 0 in
  for id = 0 to n_apis - 1 do
    let k = ref deps_off.(id) in
    List.iter
      (fun i ->
        deps_dat.(!k) <- i;
        incr k)
      dependents.(id)
  done;
  let bin_rows =
    store.Store.bins
    |> List.map (fun (b : Store.bin_row) ->
           {
             bs_digest = b.Store.br_digest;
             bs_all = b.Store.br_resolved.Footprint.apis;
             bs_init = b.Store.br_init;
             bs_serving = b.Store.br_serving;
           })
    |> Array.of_list
  in
  let survival = Bitset.Floats_heap survival in
  let elf_count = Bitset.Words_heap elf_count in
  let ranking = build_ranking ~n ~api_ids ~survival ~elf_count in
  {
    n;
    slice_lo = 0;
    slice_hi = n;
    mapped = false;
    meta_seed = 0;
    meta_source_key = "";
    total_installs = store.Store.total_installs;
    n_bins = Array.length bin_rows;
    probs = Bitset.Floats_heap probs;
    names;
    api_ids;
    apis;
    survival;
    survival_init = Bitset.Floats_heap survival_init;
    survival_serving = Bitset.Floats_heap survival_serving;
    dep_count = Bitset.Words_heap dep_count;
    elf_count;
    deps_off = Bitset.Words_heap deps_off;
    deps_dat = Bitset.Words_heap deps_dat;
    n_comps;
    req = req_all;
    sys = sys_all;
    req_init;
    sys_init;
    req_serving;
    sys_serving;
    max_nr;
    ranking;
    den;
    bins = Lazy.from_val (Ok bin_rows);
  }

(* ------------------------------------------------------------------ *)
(* Point queries                                                       *)
(* ------------------------------------------------------------------ *)

let n_packages t = t.n
let n_apis t = Array.length t.apis
let n_components t = t.n_comps
let n_binaries t = t.n_bins
let total_installs t = t.total_installs
let is_mapped t = t.mapped
let slice_lo t = t.slice_lo
let slice_hi t = t.slice_hi
let is_sliced t = t.slice_lo > 0 || t.slice_hi < t.n
let image_seed t = t.meta_seed
let image_source_key t = t.meta_source_key

let bins t = Lazy.force t.bins

let find_bin t digest =
  match Lazy.force t.bins with
  | Error e -> Error e
  | Ok rows ->
    Ok (Array.find_opt (fun b -> String.equal b.bs_digest digest) rows)

let survival_array t = function
  | All -> t.survival
  | Init -> t.survival_init
  | Serving -> t.survival_serving

let survival ?(phase = All) t api =
  match Api.Tbl.find_opt t.api_ids api with
  | Some id -> Bitset.floats_get (survival_array t phase) id
  | None -> 1.0

let importance ?phase t api = 1.0 -. survival ?phase t api

let unweighted t api =
  let k =
    match Api.Tbl.find_opt t.api_ids api with
    | Some id -> Bitset.words_get t.dep_count id
    | None -> 0
  in
  float_of_int k /. float_of_int t.n

let unweighted_elf t api =
  let k =
    match Api.Tbl.find_opt t.api_ids api with
    | Some id -> Bitset.words_get t.elf_count id
    | None -> 0
  in
  float_of_int k /. float_of_int t.n

let ranking t = Array.to_list t.ranking |> List.map (fun r -> r.rk_nr)

let top_n t n =
  let len = min (max n 0) (Array.length t.ranking) in
  List.init len (fun i -> t.ranking.(i))

let dependents_ranked ?limit t api =
  Stage.incr "query:dependents";
  let ids =
    match Api.Tbl.find_opt t.api_ids api with
    | None -> []
    | Some id ->
      let lo = Bitset.words_get t.deps_off id in
      let hi = Bitset.words_get t.deps_off (id + 1) in
      List.init (hi - lo) (fun k -> Bitset.words_get t.deps_dat (lo + k))
  in
  (* A slice's deps data only holds ids inside [slice_lo, slice_hi),
     so on a full index the subtraction is the identity. *)
  let rows =
    ids
    |> List.map (fun i ->
           let k = i - t.slice_lo in
           (t.names.(k), Bitset.floats_get t.probs k))
    |> List.sort (fun (na, pa) (nb, pb) ->
           match compare pb pa with 0 -> compare na nb | c -> c)
  in
  match limit with
  | None -> rows
  | Some k -> List.filteri (fun i _ -> i < k) rows

(* ------------------------------------------------------------------ *)
(* Completeness over arbitrary subsets                                 *)
(* ------------------------------------------------------------------ *)

type scope = Syscalls_only | All_apis

let scoped scope supported api =
  match scope with
  | All_apis -> supported api
  | Syscalls_only ->
    (match api with Api.Syscall _ -> supported api | _ -> true)

(* Universal-core gate: [common] and the query words have equal length
   on every built or validated index; the loop still tolerates a
   length mismatch (a degenerate hand-built index) by treating missing
   query words as zero instead of reading out of bounds. *)
let core_gate (common : int array) (supw : int array) =
  let na = Array.length common and nb = Array.length supw in
  let m = if na < nb then na else nb in
  let i = ref 0 in
  while !i < m && common.(!i) land lnot supw.(!i) = 0 do
    incr i
  done;
  if !i < m then false
  else begin
    let ok = ref true in
    for j = m to na - 1 do
      if common.(j) <> 0 then ok := false
    done;
    !ok
  end

(* One subset test per distinct closure class against the query's
   support words. Callers run [core_gate] first: every class contains
   [common], so a query missing any core bit satisfies no class and
   the numerator is provably 0.0 — the caller can return 0.0 without
   touching the class rows or the package sweep (bit-exact:
   [0.0 /. den] is [0.0] for every positive [den], as is the
   [den = 0.0] guard). Past the gate, the rows are walked in one flat
   plane — a heap array on a fresh build, a mapped [Bigarray] slice on
   a loaded image; the backend is matched once per call, so both loops
   run monomorphically. The [unsafe_get]s are in bounds by
   construction and by load-time validation ([flat] has [nc * nw]
   words inside the mapping, [supw] has [nw]). Every call allocates
   its own flags, so evaluation is safe from any number of domains
   against one shared index. *)
let classes_match ci (supw : int array) =
  let nc = ci.ci_nc and nw = ci.ci_nw in
  let ok = Array.make (max 1 nc) false in
  let any = ref false in
  (match ci.ci_flat with
  | Bitset.Words_heap flat ->
    for c = 0 to nc - 1 do
      let base = c * nw in
      let i = ref 0 in
      while
        !i < nw
        && Array.unsafe_get flat (base + !i)
           land lnot (Array.unsafe_get supw !i)
           = 0
      do
        incr i
      done;
      if !i = nw then begin
        ok.(c) <- true;
        any := true
      end
    done
  | Bitset.Words_map { wba; woff; _ } ->
    for c = 0 to nc - 1 do
      let base = woff + (c * nw) in
      let i = ref 0 in
      while
        !i < nw
        && Bigarray.Array1.unsafe_get wba (base + !i)
           land lnot (Array.unsafe_get supw !i)
           = 0
      do
        incr i
      done;
      if !i = nw then begin
        ok.(c) <- true;
        any := true
      end
    done);
  if !any then Some ok else None

let classes_ok ci supw =
  if core_gate ci.ci_common supw then classes_match ci supw else None

(* The probability sweep in store order — the oracle's exact numerator
   fold (ascending package index over the full row array) — over the
   global package range [lo, hi). On a sliced index the per-package
   planes only cover [slice_lo, slice_hi): the request intersects with
   the slice and plane reads shift by [slice_lo], so the surviving
   elements are visited in the same order with the same values as the
   full image — partial sums over in-slice ranges are bit-identical.
   Matched once on the backing pair; the common case is both planes
   heap or both mapped. *)
let sweep_range t (ok : bool array) ci lo hi =
  let lo = max lo t.slice_lo and hi = min hi t.slice_hi in
  let base = t.slice_lo in
  let num = ref 0.0 in
  (match (ci.ci_pkg_class, t.probs) with
  | Bitset.Words_heap pc, Bitset.Floats_heap pr ->
    for i = lo - base to hi - 1 - base do
      if ok.(pc.(i)) then num := !num +. pr.(i)
    done
  | Bitset.Words_map { wba; woff; _ }, Bitset.Floats_map { fba; foff; _ } ->
    for i = lo - base to hi - 1 - base do
      if ok.(Bigarray.Array1.unsafe_get wba (woff + i)) then
        num := !num +. Bigarray.Array1.unsafe_get fba (foff + i)
    done
  | pc, pr ->
    for i = lo - base to hi - 1 - base do
      if ok.(Bitset.words_get pc i) then num := !num +. Bitset.floats_get pr i
    done);
  !num

let sweep t (ok : bool array) ci =
  let num = sweep_range t ok ci 0 t.n in
  if t.den = 0.0 then 0.0 else num /. t.den

let eval_pred ?(scope = All_apis) ?(phase = All) t ~supported =
  Stage.incr "query:eval";
  let ci = req_of t phase in
  let n_apis = Array.length t.apis in
  let good = Bitset.create n_apis in
  for id = 0 to n_apis - 1 do
    if scoped scope supported t.apis.(id) then Bitset.add good id
  done;
  match classes_ok ci (Bitset.words good) with
  | None -> 0.0
  | Some ok -> sweep t ok ci

(* A call the universal core answers counts as [query:eval-gated]
   instead of [query:eval], so a test can count the gate's catches
   exactly. *)
let eval_syscalls ?(phase = All) t nrs =
  let ci = sys_of t phase in
  let sup = Bitset.create (t.max_nr + 1) in
  List.iter (fun nr -> if nr >= 0 && nr <= t.max_nr then Bitset.add sup nr) nrs;
  let supw = Bitset.words sup in
  if not (core_gate ci.ci_common supw) then begin
    Stage.incr "query:eval-gated";
    0.0
  end
  else begin
    Stage.incr "query:eval";
    match classes_match ci supw with
    | None -> 0.0
    | Some ok -> sweep t ok ci
  end

(* ------------------------------------------------------------------ *)
(* Scattered evaluation                                                *)
(* ------------------------------------------------------------------ *)

(* The contiguous package ranges a fleet router scatters one
   completeness query over. Summing the partials of these ranges in
   order regroups the float additions, so the merged result is within
   accumulation noise (<= 1e-12 in the test suite) of [eval_syscalls],
   not bit-identical. *)
let shard_ranges n shards =
  let shards = max 1 (min shards (max 1 n)) in
  let step = (n + shards - 1) / shards in
  let rec go lo acc =
    if lo >= n then List.rev acc
    else go (lo + step) ((lo, min n (lo + step)) :: acc)
  in
  go 0 []

(* One shard's share of a scattered completeness query: the partial
   numerator over its package range, plus the world denominator so the
   gatherer can check every shard answered from the same index. *)
let eval_syscalls_partial ?(phase = All) t nrs ~lo ~hi =
  Stage.incr "query:eval-partial";
  let lo = max 0 (min lo t.n) and hi = max 0 (min hi t.n) in
  if hi <= lo then (0.0, t.den)
  else begin
    let ci = sys_of t phase in
    let sup = Bitset.create (t.max_nr + 1) in
    List.iter
      (fun nr -> if nr >= 0 && nr <= t.max_nr then Bitset.add sup nr)
      nrs;
    match classes_ok ci (Bitset.words sup) with
    | None -> (0.0, t.den)
    | Some ok -> (sweep_range t ok ci lo hi, t.den)
  end

(* ------------------------------------------------------------------ *)
(* API naming (serve protocol / CLI)                                   *)
(* ------------------------------------------------------------------ *)

let api_to_string = function
  | Api.Syscall nr ->
    if Syscall_table.is_valid_nr nr then
      "syscall:" ^ Syscall_table.name_of_nr nr
    else "syscall:" ^ string_of_int nr
  | Api.Vop (Api.Ioctl, code) -> Printf.sprintf "ioctl:%d" code
  | Api.Vop (Api.Fcntl, code) -> Printf.sprintf "fcntl:%d" code
  | Api.Vop (Api.Prctl, code) -> Printf.sprintf "prctl:%d" code
  | Api.Pseudo_file path -> "pseudo:" ^ path
  | Api.Libc_sym name -> "libc:" ^ name

let parse_syscall s =
  match int_of_string_opt s with
  | Some nr -> Ok (Api.Syscall nr)
  | None ->
    (match Syscall_table.nr_of_name s with
     | Some nr -> Ok (Api.Syscall nr)
     | None -> Error (Printf.sprintf "unknown system call %S" s))

let api_of_string s =
  match String.index_opt s ':' with
  | None -> parse_syscall s
  | Some i ->
    let kind = String.sub s 0 i in
    let rest = String.sub s (i + 1) (String.length s - i - 1) in
    let vop v =
      match int_of_string_opt rest with
      | Some code -> Ok (Api.Vop (v, code))
      | None -> Error (Printf.sprintf "%s code must be an integer: %S" kind rest)
    in
    (match kind with
     | "syscall" -> parse_syscall rest
     | "ioctl" -> vop Api.Ioctl
     | "fcntl" -> vop Api.Fcntl
     | "prctl" -> vop Api.Prctl
     | "pseudo" -> Ok (Api.Pseudo_file rest)
     | "libc" -> Ok (Api.Libc_sym rest)
     | _ -> Error (Printf.sprintf "unknown api kind %S" kind))

(* ------------------------------------------------------------------ *)
(* Format-4 index images                                               *)
(* ------------------------------------------------------------------ *)

(* A format-4 file is the built index itself, laid out flat so it can
   be mapped read-only and consumed in place with zero decode:

     offset  size  field
     0       8     magic "LAPISNAP"
     8       4     format version = 4 (u32 LE)
     12      16    MD5 of the payload
     28      8     payload length (u64 LE)
     36      4     zero padding (the payload starts 8-aligned)
     40      -     payload

   The payload is a sequence of little-endian 64-bit words:

     word 0        endianness probe (IMAGE_PROBE)
     word 1        section count
     words 2..     section table: (id, byte offset, byte length) per
                   section, offsets payload-relative and 8-aligned
     ...           section bodies, each padded to 8 bytes

   Numeric sections (float planes, word planes, class rows) are raw
   8-byte-per-element images of the arrays the query engine walks;
   the meta and bins sections are varint-encoded with the row
   snapshot's own codecs ({!Snapshot.Wire}) and are decoded eagerly
   (meta) or lazily (bins) at load. Loading validates every offset,
   length, width and cross-reference up front, so the mapped hot
   loops can use unchecked reads.

   An image may be {b range-sliced}: the meta section carries a
   [slice_lo, slice_hi) package range (a full image writes [0, n)),
   and the per-package planes — probs, names, the six class maps, the
   dependents CSR — cover only that range, while per-API planes
   (survival, counts), the class rows/cores and the denominator stay
   whole, so point queries and the partial sweep over in-slice ranges
   answer bit-identically to the full image at ~1/N the mapped
   bytes. Proper slices drop the per-binary rows. *)

let image_version = 4
let image_header_len = 40
let image_probe = 0x0123456789ABCDEF

let sec_meta = 1
let sec_probs = 2
let sec_survival = 3 (* +0 all, +1 init, +2 serving *)
let sec_dep_count = 6
let sec_elf_count = 7
let sec_deps_off = 8
let sec_deps_dat = 9
let sec_bins = 10

(* Class-index sections: for [k]th entry of [class_list], flat is
   [sec_class_base + 3k], common [+1], pkg_class [+2]. *)
let sec_class_base = 16

let class_list t =
  [ t.req; t.sys; t.req_init; t.sys_init; t.req_serving; t.sys_serving ]

let fail e = raise (Wire.Fail e)
let corrupt fmt = Printf.ksprintf (fun msg -> fail (Snapshot.Corrupt msg)) fmt

(* --- writer ------------------------------------------------------- *)

(* [lo, hi) is the global package range the written image covers; the
   range header rides between [den] and the name list, and the name
   list holds [hi - lo] entries. A full image writes [0, n). *)
let meta_section t ~seed ~source_key ~lo ~hi ~n_bins ~class_dims =
  let b = Buffer.create 4096 in
  Wire.w_int b seed;
  Wire.w_int b t.total_installs;
  Wire.w_str b source_key;
  Wire.w_int b t.n;
  Wire.w_int b (Array.length t.apis);
  Wire.w_int b t.n_comps;
  Wire.w_int b t.max_nr;
  Wire.w_int b n_bins;
  Wire.w_float b t.den;
  Wire.w_int b lo;
  Wire.w_int b hi;
  for i = lo - t.slice_lo to hi - 1 - t.slice_lo do
    Wire.w_str b t.names.(i)
  done;
  Array.iter (Wire.w_api b) t.apis;
  List.iter
    (fun (nc, nw) ->
      Wire.w_int b nc;
      Wire.w_int b nw)
    class_dims;
  Buffer.contents b

(* Bins section: a pool of distinct encoded API sets (bitset bytes
   over the interned universe, plus any APIs outside it — hand-built
   stores may hold phase sets that are not footprint subsets), then
   one (digest, all, init, serving) row per binary referencing pool
   ids. Phase sets usually repeat across binaries, hence the pool. *)
let bins_section t (rows : bin_sets array) =
  let n_apis = Array.length t.apis in
  let encode_set set =
    let bits = Bitset.create n_apis in
    let extra = ref [] in
    Api.Set.iter
      (fun a ->
        match Api.Tbl.find_opt t.api_ids a with
        | Some id -> Bitset.add bits id
        | None -> extra := a :: !extra)
      set;
    let b = Buffer.create 64 in
    Wire.w_str b (Bitset.to_bytes bits);
    let extra = List.rev !extra in
    Wire.w_varint b (List.length extra);
    List.iter (Wire.w_api b) extra;
    Buffer.contents b
  in
  let pool = Hashtbl.create 64 in
  let pool_rev = ref [] in
  let n_pool = ref 0 in
  let pool_id enc =
    match Hashtbl.find_opt pool enc with
    | Some id -> id
    | None ->
      let id = !n_pool in
      incr n_pool;
      Hashtbl.add pool enc id;
      pool_rev := enc :: !pool_rev;
      id
  in
  (* A row's sets are often one physical set (a library's, or a binary
     with no phase transition): encode it once. Pool ids are handed out
     serving, init, all, in that order: the pool's order is part of the
     image bytes. *)
  let triples =
    Array.map
      (fun r ->
        let s = pool_id (encode_set r.bs_serving) in
        let i =
          if r.bs_init == r.bs_serving then s
          else pool_id (encode_set r.bs_init)
        in
        let a =
          if r.bs_all == r.bs_init then i
          else if r.bs_all == r.bs_serving then s
          else pool_id (encode_set r.bs_all)
        in
        (r.bs_digest, a, i, s))
      rows
  in
  let b = Buffer.create 4096 in
  Wire.w_varint b !n_pool;
  List.iter (Buffer.add_string b) (List.rev !pool_rev);
  Wire.w_varint b (Array.length triples);
  Array.iter
    (fun (digest, a, i, s) ->
      Buffer.add_string b digest;
      Wire.w_varint b a;
      Wire.w_varint b i;
      Wire.w_varint b s)
    triples;
  Buffer.contents b

let to_image_string ?(seed = 0) ?(source_key = "") ?range t =
  match Lazy.force t.bins with
  | Error e -> Error e
  | Ok rows ->
    let lo, hi =
      match range with
      | None -> (t.slice_lo, t.slice_hi)
      | Some (lo, hi) -> (lo, hi)
    in
    if lo < t.slice_lo || hi > t.slice_hi || lo > hi then
      invalid_arg
        (Printf.sprintf
           "Query.to_image_string: range %d:%d outside the source slice \
            [%d, %d)"
           lo hi t.slice_lo t.slice_hi);
    (* [full] = the written range is exactly what the source covers: the
       output is the image that always was. A proper slice drops the
       per-binary rows (they have no package attribution), trims the
       per-package planes, and keeps only the class rows some in-range
       package references (remapping [pkg_class] onto the kept rows, in
       original order — the sweep reads bit-identical rows under new
       ids); per-API planes are written whole either way. *)
    let full = lo = t.slice_lo && hi = t.slice_hi in
    let np = hi - lo in
    let base = lo - t.slice_lo in
    let rows = if full then rows else [||] in
    let wsec w = Bitset.words_to_le (Bitset.words_to_array w) in
    let fsec f = Bitset.floats_to_le (Bitset.floats_to_array f) in
    (* Dependents CSR restricted to packages in range: per-API segments
       keep their relative order (global package ids), offsets
       recomputed over the kept entries. On the full range this is a
       copy. *)
    let deps_off_s, deps_dat_s =
      if full then (wsec t.deps_off, wsec t.deps_dat)
      else begin
        let n_apis = Array.length t.apis in
        let off = Array.make (n_apis + 1) 0 in
        for id = 0 to n_apis - 1 do
          let s = Bitset.words_get t.deps_off id in
          let e = Bitset.words_get t.deps_off (id + 1) in
          let c = ref 0 in
          for k = s to e - 1 do
            let v = Bitset.words_get t.deps_dat k in
            if v >= lo && v < hi then incr c
          done;
          off.(id + 1) <- off.(id) + !c
        done;
        let dat = Array.make off.(n_apis) 0 in
        let w = ref 0 in
        for id = 0 to n_apis - 1 do
          let s = Bitset.words_get t.deps_off id in
          let e = Bitset.words_get t.deps_off (id + 1) in
          for k = s to e - 1 do
            let v = Bitset.words_get t.deps_dat k in
            if v >= lo && v < hi then begin
              dat.(!w) <- v;
              incr w
            end
          done
        done;
        (Bitset.words_to_le off, Bitset.words_to_le dat)
      end
    in
    (* (nc, nw, flat body, common body, pkg_class body) per class
       plane. An empty kept set (possible on an empty range) writes the
       loader's zero-class convention: dims (0, 0), one zero word of
       flat and of common. *)
    let slice_class ci =
      if full then
        ( ci.ci_nc,
          ci.ci_nw,
          wsec ci.ci_flat,
          Bitset.words_to_le ci.ci_common,
          Bitset.words_to_le (Bitset.words_sub ci.ci_pkg_class base np) )
      else begin
        let used = Array.make (max 1 ci.ci_nc) false in
        for i = base to base + np - 1 do
          used.(Bitset.words_get ci.ci_pkg_class i) <- true
        done;
        let remap = Array.make (max 1 ci.ci_nc) (-1) in
        let kept = ref 0 in
        for c = 0 to ci.ci_nc - 1 do
          if used.(c) then begin
            remap.(c) <- !kept;
            incr kept
          end
        done;
        let kept = !kept in
        if kept = 0 then
          ( 0,
            0,
            Bitset.words_to_le [| 0 |],
            Bitset.words_to_le [| 0 |],
            Bitset.words_to_le [||] )
        else begin
          let flat = Array.make (kept * ci.ci_nw) 0 in
          for c = 0 to ci.ci_nc - 1 do
            if used.(c) then
              for w = 0 to ci.ci_nw - 1 do
                flat.((remap.(c) * ci.ci_nw) + w) <-
                  Bitset.words_get ci.ci_flat ((c * ci.ci_nw) + w)
              done
          done;
          let pkg_class =
            Array.init np (fun i ->
                remap.(Bitset.words_get ci.ci_pkg_class (base + i)))
          in
          ( kept,
            ci.ci_nw,
            Bitset.words_to_le flat,
            Bitset.words_to_le ci.ci_common,
            Bitset.words_to_le pkg_class )
        end
      end
    in
    let classes = List.map slice_class (class_list t) in
    let class_dims =
      List.map (fun (nc, nw, _, _, _) -> (nc, nw)) classes
    in
    let sections =
      [
        (sec_meta,
         meta_section t ~seed ~source_key ~lo ~hi ~class_dims
           ~n_bins:(Array.length rows));
        (sec_probs, Bitset.floats_to_le (Bitset.floats_sub t.probs base np));
        (sec_survival, fsec t.survival);
        (sec_survival + 1, fsec t.survival_init);
        (sec_survival + 2, fsec t.survival_serving);
        (sec_dep_count, wsec t.dep_count);
        (sec_elf_count, wsec t.elf_count);
        (sec_deps_off, deps_off_s);
        (sec_deps_dat, deps_dat_s);
        (sec_bins, bins_section t rows);
      ]
      @ List.concat
          (List.mapi
             (fun k (_, _, flat, common, pkg_class) ->
               [
                 (sec_class_base + (3 * k), flat);
                 (sec_class_base + (3 * k) + 1, common);
                 (sec_class_base + (3 * k) + 2, pkg_class);
               ])
             classes)
    in
    let n_sections = List.length sections in
    let pad8 k = (k + 7) land lnot 7 in
    let table_bytes = 8 * (2 + (3 * n_sections)) in
    let entries, payload_len =
      List.fold_left
        (fun (acc, off) (id, body) ->
          ((id, off, String.length body) :: acc, off + pad8 (String.length body)))
        ([], table_bytes) sections
    in
    let entries = List.rev entries in
    let payload = Bytes.make payload_len '\000' in
    Bytes.set_int64_le payload 0 (Int64.of_int image_probe);
    Bytes.set_int64_le payload 8 (Int64.of_int n_sections);
    List.iteri
      (fun i (id, off, len) ->
        let base = 16 + (24 * i) in
        Bytes.set_int64_le payload base (Int64.of_int id);
        Bytes.set_int64_le payload (base + 8) (Int64.of_int off);
        Bytes.set_int64_le payload (base + 16) (Int64.of_int len))
      entries;
    List.iter2
      (fun (_, body) (_, off, _) ->
        Bytes.blit_string body 0 payload off (String.length body))
      sections entries;
    let payload = Bytes.unsafe_to_string payload in
    let out = Buffer.create (image_header_len + payload_len) in
    Buffer.add_string out Snapshot.magic;
    let scratch = Bytes.create 8 in
    Bytes.set_int32_le scratch 0 (Int32.of_int image_version);
    Buffer.add_subbytes out scratch 0 4;
    Buffer.add_string out (Digest.string payload);
    Bytes.set_int64_le scratch 0 (Int64.of_int payload_len);
    Buffer.add_bytes out scratch;
    Buffer.add_string out "\000\000\000\000";
    Buffer.add_string out payload;
    Ok (Buffer.contents out)

let save_image ?seed ?source_key ?range path t =
  match to_image_string ?seed ?source_key ?range t with
  | Error e -> Error e
  | Ok s -> (
    match
      let oc = open_out_bin path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc s)
    with
    | () -> Ok ()
    | exception Sys_error msg -> Error (Snapshot.Io msg))

(* --- loader ------------------------------------------------------- *)

(* One payload, three views: [img_read] pulls varint-encoded section
   bytes (pread on the file path, substring on the in-memory path);
   the two Bigarrays are whole-payload element views the numeric
   sections slice into. Byte offset [8k] is element [k] of either. *)
type image_source = {
  img_read : int -> int -> string;
  img_iba : Bitset.int_ba;
  img_fba : Bitset.float_ba;
  img_len : int;
}

let decode_bins ~apis ~expect (raw : string) =
  try
    let n_apis = Array.length apis in
    let c = Wire.cursor raw in
    let n_pool = Wire.r_varint c "image.bins.pool-count" in
    if n_pool < 0 || n_pool > String.length raw then
      corrupt "image: bins pool count %d" n_pool;
    let pool = Array.make (max 1 n_pool) Api.Set.empty in
    for p = 0 to n_pool - 1 do
      let bytes = Wire.r_str c "image.bins.pool-bits" in
      let base =
        match Bitset.of_bytes n_apis bytes with
        | Ok b -> b
        | Error msg -> corrupt "image: bins bitset: %s" msg
      in
      let set =
        Bitset.fold (fun id acc -> Api.Set.add apis.(id) acc) base Api.Set.empty
      in
      let n_extra = Wire.r_varint c "image.bins.pool-extra" in
      if n_extra < 0 || n_extra > String.length raw then
        corrupt "image: bins extra count %d" n_extra;
      let set = ref set in
      for _ = 1 to n_extra do
        set := Api.Set.add (Wire.r_api c) !set
      done;
      pool.(p) <- !set
    done;
    let n_bins = Wire.r_varint c "image.bins.count" in
    if n_bins <> expect then
      corrupt "image: bins section holds %d rows, meta says %d" n_bins expect;
    let rows = Array.make (max 1 n_bins) None in
    for r = 0 to n_bins - 1 do
      if c.Wire.pos + 16 > c.Wire.stop then
        fail (Snapshot.Truncated "image.bins.digest");
      let digest = String.sub c.Wire.buf c.Wire.pos 16 in
      c.Wire.pos <- c.Wire.pos + 16;
      let pid () =
        let id = Wire.r_varint c "image.bins.set-id" in
        if id < 0 || id >= n_pool then
          corrupt "image: bins pool id %d of %d" id n_pool;
        pool.(id)
      in
      let bs_all = pid () in
      let bs_init = pid () in
      let bs_serving = pid () in
      rows.(r) <- Some { bs_digest = digest; bs_all; bs_init; bs_serving }
    done;
    if c.Wire.pos <> c.Wire.stop then corrupt "image: bins section underrun";
    Ok
      (Array.init n_bins (fun r ->
           match rows.(r) with Some b -> b | None -> assert false))
  with Wire.Fail e -> Error e

(* Total validation of an image payload, then assembly of a [t] whose
   numeric planes alias the payload words. Everything the unchecked
   hot loops rely on is established here: section bounds, alignment,
   exact plane widths against the meta counts, class map entries in
   range, CSR offsets monotone and consistent. Raises {!Wire.Fail};
   the entry points catch. *)
let load_image_src (src : image_source) : t =
  if src.img_len land 7 <> 0 then
    corrupt "image: payload length %d not 8-aligned" src.img_len;
  if src.img_len < 16 then fail (Snapshot.Truncated "image: section table");
  let head = src.img_read 0 16 in
  let probe = Int64.to_int (String.get_int64_le head 0) in
  if probe <> image_probe then
    corrupt "image: bad probe word (wrong endianness or not an index image)";
  let n_sections = Int64.to_int (String.get_int64_le head 8) in
  if n_sections < 0 || n_sections > 128 then
    corrupt "image: section count %d" n_sections;
  let table_len = 16 + (24 * n_sections) in
  if table_len > src.img_len then fail (Snapshot.Truncated "image: section table");
  let table = src.img_read 16 (24 * n_sections) in
  let secs = Hashtbl.create 32 in
  for i = 0 to n_sections - 1 do
    let id = Int64.to_int (String.get_int64_le table (24 * i)) in
    let off = Int64.to_int (String.get_int64_le table ((24 * i) + 8)) in
    let len = Int64.to_int (String.get_int64_le table ((24 * i) + 16)) in
    if Hashtbl.mem secs id then corrupt "image: duplicate section %d" id;
    if len < 0 || off < table_len || off > src.img_len - len then
      fail
        (Snapshot.Truncated (Printf.sprintf "image: section %d out of bounds" id));
    if off land 7 <> 0 then corrupt "image: section %d unaligned" id;
    Hashtbl.add secs id (off, len)
  done;
  let find id what =
    match Hashtbl.find_opt secs id with
    | Some s -> s
    | None -> corrupt "image: missing %s section" what
  in
  (* meta *)
  let moff, mlen = find sec_meta "meta" in
  let c = Wire.cursor (src.img_read moff mlen) in
  let meta_seed = Wire.r_int c "image.meta.seed" in
  let total_installs = Wire.r_int c "image.meta.total-installs" in
  let meta_source_key = Wire.r_str c "image.meta.source-key" in
  let n = Wire.r_int c "image.meta.n-packages" in
  let n_apis = Wire.r_int c "image.meta.n-apis" in
  let n_comps = Wire.r_int c "image.meta.n-comps" in
  let max_nr = Wire.r_int c "image.meta.max-nr" in
  let n_bins = Wire.r_int c "image.meta.n-bins" in
  let den = Wire.r_float c "image.meta.den" in
  let slice_lo = Wire.r_int c "image.meta.slice-lo" in
  let slice_hi = Wire.r_int c "image.meta.slice-hi" in
  if n < 0 || n_apis < 0 || n_comps < 0 || n_bins < 0 || max_nr < -1 then
    corrupt "image: negative meta counts";
  if n > mlen || n_apis > mlen || n_comps > n then
    corrupt "image: meta counts exceed the meta section";
  if slice_lo < 0 || slice_hi < slice_lo || slice_hi > n then
    corrupt "image: slice range %d:%d outside %d packages" slice_lo slice_hi n;
  (* Per-package planes cover the slice only. *)
  let np = slice_hi - slice_lo in
  let names = Array.make np "" in
  for i = 0 to np - 1 do
    names.(i) <- Wire.r_str c "image.meta.name"
  done;
  let apis = Array.make n_apis (Api.Syscall 0) in
  for i = 0 to n_apis - 1 do
    apis.(i) <- Wire.r_api c
  done;
  let class_meta = Array.make 6 (0, 0) in
  for k = 0 to 5 do
    let nc = Wire.r_int c "image.meta.class-nc" in
    let nw = Wire.r_int c "image.meta.class-nw" in
    class_meta.(k) <- (nc, nw)
  done;
  if c.Wire.pos <> c.Wire.stop then corrupt "image: meta section underrun";
  let api_ids = Api.Tbl.create (max 16 n_apis) in
  Array.iteri
    (fun id a ->
      if Api.Tbl.mem api_ids a then corrupt "image: duplicate api in dictionary";
      Api.Tbl.add api_ids a id)
    apis;
  (* numeric planes *)
  let words_sec id what count =
    let off, len = find id what in
    if len <> 8 * count then
      corrupt "image: %s section is %d bytes, expected %d" what len (8 * count);
    Bitset.Words_map { wba = src.img_iba; woff = off / 8; wlen = count }
  in
  let floats_sec id what count =
    let off, len = find id what in
    if len <> 8 * count then
      corrupt "image: %s section is %d bytes, expected %d" what len (8 * count);
    Bitset.Floats_map { fba = src.img_fba; foff = off / 8; flen = count }
  in
  let probs = floats_sec sec_probs "probs" np in
  let survival = floats_sec sec_survival "survival" n_apis in
  let survival_init = floats_sec (sec_survival + 1) "survival-init" n_apis in
  let survival_serving =
    floats_sec (sec_survival + 2) "survival-serving" n_apis
  in
  let dep_count = words_sec sec_dep_count "dep-count" n_apis in
  let elf_count = words_sec sec_elf_count "elf-count" n_apis in
  let deps_off = words_sec sec_deps_off "deps-offsets" (n_apis + 1) in
  let doff, dlen = find sec_deps_dat "deps-data" in
  if dlen land 7 <> 0 then corrupt "image: deps-data length not 8-aligned";
  let deps_total = dlen / 8 in
  let deps_dat =
    Bitset.Words_map { wba = src.img_iba; woff = doff / 8; wlen = deps_total }
  in
  if Bitset.words_get deps_off 0 <> 0 then
    corrupt "image: deps offsets must start at 0";
  for id = 0 to n_apis - 1 do
    if Bitset.words_get deps_off (id + 1) < Bitset.words_get deps_off id then
      corrupt "image: deps offsets not monotone"
  done;
  if Bitset.words_get deps_off n_apis <> deps_total then
    corrupt "image: deps offsets disagree with deps-data length";
  for k = 0 to deps_total - 1 do
    let v = Bitset.words_get deps_dat k in
    if v < slice_lo || v >= slice_hi then
      corrupt "image: dependent package id %d outside slice %d:%d" v slice_lo
        slice_hi
  done;
  (* class indexes *)
  let universes = [| n_apis; max_nr + 1; n_apis; max_nr + 1; n_apis; max_nr + 1 |] in
  let read_class k =
    let nc, nw = class_meta.(k) in
    if nc < 0 || nw < 0 then corrupt "image: negative class dimensions";
    if nc > max 1 n_comps then
      corrupt "image: %d classes exceed %d components" nc n_comps;
    if nc = 0 then begin
      if nw <> 0 then corrupt "image: empty class index with %d words" nw
    end
    else if nw <> Bitset.words_for universes.(k) then
      corrupt "image: class width %d disagrees with universe %d" nw universes.(k);
    let flat_count = max 1 (nc * nw) in
    let flat = words_sec (sec_class_base + (3 * k)) "class-rows" flat_count in
    let common =
      let off, len = find (sec_class_base + (3 * k) + 1) "class-core" in
      let expect = if nc = 0 then max 1 nw else nw in
      if len <> 8 * expect then
        corrupt "image: class-core section is %d bytes, expected %d" len
          (8 * expect);
      Array.init expect (fun i -> Bigarray.Array1.get src.img_iba ((off / 8) + i))
    in
    let pkg_class = words_sec (sec_class_base + (3 * k) + 2) "class-map" np in
    for i = 0 to np - 1 do
      let v = Bitset.words_get pkg_class i in
      if v < 0 || v >= nc then corrupt "image: package class %d of %d" v nc
    done;
    { ci_nc = nc; ci_nw = nw; ci_flat = flat; ci_common = common; ci_pkg_class = pkg_class }
  in
  let req = read_class 0 in
  let sys = read_class 1 in
  let req_init = read_class 2 in
  let sys_init = read_class 3 in
  let req_serving = read_class 4 in
  let sys_serving = read_class 5 in
  (* bins: pull the raw bytes eagerly (the fd may close after load),
     decode on first use — the server never asks for them. *)
  let boff, blen = find sec_bins "bins" in
  let bins_raw = src.img_read boff blen in
  let bins = lazy (decode_bins ~apis ~expect:n_bins bins_raw) in
  let ranking = build_ranking ~n ~api_ids ~survival ~elf_count in
  {
    n;
    slice_lo;
    slice_hi;
    mapped = true;
    meta_seed;
    meta_source_key;
    total_installs;
    n_bins;
    probs;
    names;
    api_ids;
    apis;
    survival;
    survival_init;
    survival_serving;
    dep_count;
    elf_count;
    deps_off;
    deps_dat;
    n_comps;
    req;
    sys;
    req_init;
    sys_init;
    req_serving;
    sys_serving;
    max_nr;
    ranking;
    den;
    bins;
  }

let check_header ~what ~len ~read_prefix =
  let prefix = read_prefix (min image_header_len len) in
  let mlen = min 8 (String.length prefix) in
  if String.sub prefix 0 mlen <> String.sub Snapshot.magic 0 mlen then
    fail Snapshot.Not_snapshot;
  if len < image_header_len then fail (Snapshot.Truncated "header");
  let version = Int32.to_int (String.get_int32_le prefix 8) in
  if version <> image_version then fail (Snapshot.Unsupported_version version);
  let digest = String.sub prefix 12 16 in
  let payload_len = Int64.to_int (String.get_int64_le prefix 28) in
  if payload_len < 0 || payload_len > len - image_header_len then
    fail (Snapshot.Truncated "payload");
  if image_header_len + payload_len < len then
    corrupt "image: %d trailing bytes after the payload" (len - image_header_len - payload_len);
  ignore what;
  (digest, payload_len)

let of_image ?(verify = true) (s : string) =
  try
    let digest, payload_len =
      check_header ~what:"image" ~len:(String.length s)
        ~read_prefix:(fun k -> String.sub s 0 k)
    in
    if verify && Digest.substring s image_header_len payload_len <> digest then
      fail Snapshot.Digest_mismatch;
    if payload_len land 7 <> 0 then
      corrupt "image: payload length %d not 8-aligned" payload_len;
    let nwords = payload_len / 8 in
    let iba = Bigarray.Array1.create Bigarray.int Bigarray.c_layout nwords in
    let fba = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout nwords in
    for i = 0 to nwords - 1 do
      let bits = String.get_int64_le s (image_header_len + (8 * i)) in
      Bigarray.Array1.set iba i (Int64.to_int bits);
      Bigarray.Array1.set fba i (Int64.float_of_bits bits)
    done;
    let src =
      {
        img_read =
          (fun pos len ->
            if pos < 0 || len < 0 || pos > payload_len - len then
              fail (Snapshot.Truncated "image: section read");
            String.sub s (image_header_len + pos) len);
        img_iba = iba;
        img_fba = fba;
        img_len = payload_len;
      }
    in
    Ok (load_image_src src)
  with Wire.Fail e -> Error e

let load_image ?(verify = true) path =
  Stage.time "image-load" @@ fun () ->
  match Unix.openfile path [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error (e, _, _) ->
    Error (Snapshot.Io (path ^ ": " ^ Unix.error_message e))
  | fd -> (
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    @@ fun () ->
    try
      let file_len = (Unix.fstat fd).Unix.st_size in
      let pread pos len what =
        ignore (Unix.lseek fd pos Unix.SEEK_SET);
        let b = Bytes.create len in
        let k = ref 0 in
        while !k < len do
          let r = Unix.read fd b !k (len - !k) in
          if r = 0 then fail (Snapshot.Truncated what);
          k := !k + r
        done;
        Bytes.unsafe_to_string b
      in
      let digest, payload_len =
        check_header ~what:path ~len:file_len
          ~read_prefix:(fun k -> pread 0 k "header")
      in
      if verify then begin
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            seek_in ic image_header_len;
            if Digest.channel ic payload_len <> digest then
              fail Snapshot.Digest_mismatch)
      end;
      if payload_len land 7 <> 0 then
        corrupt "image: payload length %d not 8-aligned" payload_len;
      if payload_len < 16 then fail (Snapshot.Truncated "image: section table");
      let nwords = payload_len / 8 in
      let iba =
        Bigarray.array1_of_genarray
          (Unix.map_file fd ~pos:(Int64.of_int image_header_len) Bigarray.int
             Bigarray.c_layout false [| nwords |])
      in
      let fba =
        Bigarray.array1_of_genarray
          (Unix.map_file fd ~pos:(Int64.of_int image_header_len)
             Bigarray.float64 Bigarray.c_layout false [| nwords |])
      in
      let src =
        {
          img_read =
            (fun pos len ->
              if pos < 0 || len < 0 || pos > payload_len - len then
                fail (Snapshot.Truncated "image: section read");
              pread (image_header_len + pos) len "image: section read");
          img_iba = iba;
          img_fba = fba;
          img_len = payload_len;
        }
      in
      Ok (load_image_src src)
    with
    | Wire.Fail e -> Error e
    | Unix.Unix_error (e, fn, _) ->
      Error
        (Snapshot.Io
           (Printf.sprintf "%s: %s (%s)" path (Unix.error_message e) fn))
    | Sys_error msg -> Error (Snapshot.Io msg)
    | End_of_file -> Error (Snapshot.Truncated "image: payload"))
