(** Cross-library footprint resolution (Section 7): for each library
    function that an executable relies on, identify the code reachable
    from that entry point in the defining library, recursively through
    further library calls, and aggregate the results.

    Imports that resolve into the C runtime family additionally count
    as libc-API usage ({!Lapis_apidb.Api.Libc_sym}) of the importing
    binary, which feeds the Section 3.5 and 4.2 analyses. *)

open Lapis_apidb
module String_set = Footprint.String_set

type stats = {
  mutable ld_computations : int;
  mutable memo_hits : int;
  mutable memo_misses : int;
  mutable rejects : (string * int) list;
      (** quarantined binaries per {!Lapis_elf.Reader.kind_name} (plus
          "analysis-crash"), filled in by {!Lapis_store.Pipeline.run} *)
}

type key_state = Keying | Keyed of Digest.t option

type world = {
  libs : (string, Binary.t) Hashtbl.t;  (** soname -> analyzed library *)
  ld_so : Binary.t option;  (** the dynamic linker, if modelled *)
  libc_family : string -> bool;  (** is this soname part of the C runtime? *)
  def_lib : string -> string option;  (** symbol -> defining soname *)
  memo : (string, Footprint.t) Hashtbl.t;
  in_progress : (string, unit) Hashtbl.t;
  union_cache : (string, Footprint.t) Hashtbl.t;
      (** pre-unioned import-set footprints, keyed by canonical set *)
  mutable ld_so_fp : Footprint.t option;  (** once-per-world ld.so cache *)
  lib_keys : (string, key_state) Hashtbl.t;
      (** soname -> library closure key; [Keying] while its imports
          are being hashed, which is how an import cycle shows *)
  import_keys : (string, string option) Hashtbl.t;
      (** import name -> what a closure key records for it *)
  stats : stats;
}

let make_world ?ld_so ~libc_family (libs : (string * Binary.t) list) =
  let tbl = Hashtbl.create 64 in
  let defs = Hashtbl.create 4096 in
  List.iter
    (fun (soname, bin) ->
      Hashtbl.replace tbl soname bin;
      List.iter
        (fun export ->
          if not (Hashtbl.mem defs export) then
            Hashtbl.replace defs export soname)
        (Binary.exports bin))
    libs;
  {
    libs = tbl;
    ld_so;
    libc_family;
    def_lib = Hashtbl.find_opt defs;
    memo = Hashtbl.create 4096;
    in_progress = Hashtbl.create 64;
    union_cache = Hashtbl.create 256;
    ld_so_fp = None;
    lib_keys = Hashtbl.create 64;
    import_keys = Hashtbl.create 4096;
    stats =
      { ld_computations = 0; memo_hits = 0; memo_misses = 0; rejects = [] };
  }

(* Resolve the imports of a local closure computed in [soname]'s
   context, producing the transitive footprint. *)
let rec resolve_closure world ~importer_is_libc (cl : Binary.closure) =
  Footprint.union cl.Binary.cl_footprint
    (imports_footprint world ~importer_is_libc cl.Binary.cl_imports)

(* The unioned footprint of a whole import set. Footprint union is
   associative and commutative and the site counters are sums, so the
   result only depends on the set (and the importer's libc-ness) — and
   executables of a package share import sets, so the union is cached
   by its canonical key. The cache is bypassed while any export
   resolution is in flight: a footprint computed under a cycle cut is
   correct for the memo entry being built, but must not be shared. *)
and imports_footprint world ~importer_is_libc imports =
  let compute () =
    String_set.fold
      (fun imp fp ->
        match world.def_lib imp with
        | None -> fp  (* unresolvable import: no defining library known *)
        | Some soname ->
          let fp = Footprint.union fp (export_footprint world soname imp) in
          if world.libc_family soname && not importer_is_libc then
            Footprint.add_api (Api.Libc_sym imp) fp
          else fp)
      imports Footprint.empty
  in
  if Hashtbl.length world.in_progress > 0 then compute ()
  else begin
    let key =
      Digest.string
        ((if importer_is_libc then "L" else "x")
        ^ String.concat "\x00" (String_set.elements imports))
    in
    match Hashtbl.find_opt world.union_cache key with
    | Some fp -> fp
    | None ->
      let fp = compute () in
      Hashtbl.replace world.union_cache key fp;
      fp
  end

and export_footprint world soname export : Footprint.t =
  let key = soname ^ ":" ^ export in
  match Hashtbl.find_opt world.memo key with
  | Some fp ->
    world.stats.memo_hits <- world.stats.memo_hits + 1;
    fp
  | None ->
    if Hashtbl.mem world.in_progress key then Footprint.empty
    else begin
      Hashtbl.replace world.in_progress key ();
      let fp =
        match Hashtbl.find_opt world.libs soname with
        | None -> Footprint.empty
        | Some bin ->
          let cl = Binary.local_closure bin ~start:export in
          resolve_closure world
            ~importer_is_libc:(world.libc_family soname)
            cl
      in
      Hashtbl.remove world.in_progress key;
      Hashtbl.replace world.memo key fp;
      world.stats.memo_misses <- world.stats.memo_misses + 1;
      fp
    end

(* The footprint the dynamic linker contributes to every
   dynamically-linked program (Table 5). It is the same for every
   executable, so it is resolved once per world and cached: without
   the cache the closure walk reruns for each of the thousands of
   dynamically-linked executables in a distribution. *)
let ld_so_footprint world =
  match world.ld_so_fp with
  | Some fp -> fp
  | None ->
    let fp =
      match world.ld_so with
      | None -> Footprint.empty
      | Some bin ->
        List.fold_left
          (fun acc entry ->
            Footprint.union acc
              (resolve_closure world ~importer_is_libc:true
                 (Binary.local_closure bin ~start:entry)))
          Footprint.empty (Binary.entry_points bin)
    in
    world.stats.ld_computations <- world.stats.ld_computations + 1;
    world.ld_so_fp <- Some fp;
    fp

(* Is [bin] itself part of the C runtime? Its imports into the runtime
   then are not libc-API usage. *)
let libcish world (bin : Binary.t) =
  match bin.Binary.image.Lapis_elf.Image.soname with
  | Some soname -> world.libc_family soname
  | None -> false

(* The soname [bin] is registered under, if it is that world library
   itself (not just a binary carrying the same soname). *)
let in_world world (bin : Binary.t) =
  match bin.Binary.image.Lapis_elf.Image.soname with
  | Some s ->
    (match Hashtbl.find_opt world.libs s with
     | Some b when b == bin -> Some s
     | _ -> None)
  | None -> None

(* Full resolved footprint of one analyzed binary. For executables the
   analysis starts at e_entry; for shared libraries at every export.
   The binary-wide pseudo-file sweep is included, and dynamically
   linked executables inherit the dynamic linker's startup work. *)
let binary_footprint world (bin : Binary.t) : Footprint.t =
  let libcish = libcish world bin in
  let from_entries =
    match in_world world bin with
    | Some s ->
      (* A shared library registered in the world: each entry point is
         an export, and its closure is exactly the memoized
         [export_footprint], so libraries consumed by many importers
         are resolved once instead of once more here. *)
      List.fold_left
        (fun acc entry ->
          Footprint.union acc (export_footprint world s entry))
        Footprint.empty (Binary.entry_points bin)
    | None ->
      List.fold_left
        (fun acc entry ->
          Footprint.union acc
            (resolve_closure world ~importer_is_libc:libcish
               (Binary.local_closure bin ~start:entry)))
        Footprint.empty (Binary.entry_points bin)
  in
  let fp = Footprint.union from_entries bin.Binary.rodata_strings in
  match bin.Binary.image.Lapis_elf.Image.interp with
  | Some _ -> Footprint.union fp (ld_so_footprint world)
  | None -> fp

(* Closure keys: a Merkle hash over the library import graph of
   everything the two functions above and below read about a binary.
   Resolution is a pure function of those inputs as long as no cycle
   cut in [export_footprint] is reached, and a cut is only reached from
   a closure with a library-level import cycle, which has no key.

   A key starts with the payload digest, which fixes the binary's
   [plt_got] names and their order: a call through a PLT stub only ever
   resolves to one of them. So the key records, in [plt_got] order,
   what each name resolves to in this world rather than the names:
   the key of its defining library, which covers that library's
   soname and C runtime bit. *)

(* What a key records for import [imp]: "-" when no library defines
   it, else the key of the library [def_lib] names. [None] when that
   library has no key. Memoized per world. *)
let rec import_key world imp =
  match Hashtbl.find_opt world.import_keys imp with
  | Some part -> part
  | None ->
    let part =
      match world.def_lib imp with
      | None -> Some "-"
      | Some soname -> Option.map (fun k -> "+" ^ k) (lib_key world soname)
    in
    Hashtbl.replace world.import_keys imp part;
    part

(* Appends the part of every import of [bin]; false when one has
   none. *)
and add_imports world buf (bin : Binary.t) =
  List.for_all
    (fun (imp, _) ->
      match import_key world imp with
      | Some part ->
        Buffer.add_string buf part;
        true
      | None -> false)
    bin.Binary.image.Lapis_elf.Image.plt_got

(* A world library's key, memoized per world: its soname, that
   soname's C runtime bit, its payload and the parts of its imports.
   Meeting a soname whose key is still being computed means an import
   cycle: every library on it (each one reaches the soname met) gets
   no key, and so does every import it defines. *)
and lib_key world soname =
  match Hashtbl.find_opt world.lib_keys soname with
  | Some (Keyed k) -> k
  | Some Keying -> None
  | None ->
    Hashtbl.replace world.lib_keys soname Keying;
    let k =
      let buf = Buffer.create 1024 in
      Buffer.add_string buf (string_of_int (String.length soname));
      Buffer.add_char buf ':';
      Buffer.add_string buf soname;
      Buffer.add_char buf (if world.libc_family soname then 'L' else 'x');
      match Hashtbl.find_opt world.libs soname with
      | None -> Some (Digest.string (Buffer.contents buf))
      | Some lib ->
        (match lib.Binary.payload with
         | None -> None
         | Some payload ->
           Buffer.add_string buf payload;
           if add_imports world buf lib then
             Some (Digest.string (Buffer.contents buf))
           else None)
    in
    Hashtbl.replace world.lib_keys soname (Keyed k);
    k

let closure_key world (bin : Binary.t) : Digest.t option =
  match bin.Binary.payload with
  | None -> None
  | Some payload ->
    let buf = Buffer.create 4096 in
    Buffer.add_string buf payload;
    Buffer.add_char buf (if libcish world bin then 'L' else 'x');
    Buffer.add_char buf (if in_world world bin <> None then 'W' else 'o');
    let ld_ok =
      match (bin.Binary.image.Lapis_elf.Image.interp, world.ld_so) with
      | None, _ ->
        Buffer.add_char buf 's';
        true
      | Some _, None ->
        Buffer.add_char buf 'n';
        true
      | Some _, Some ld ->
        (* the dynamic linker always resolves as part of the C runtime *)
        Buffer.add_char buf 'd';
        (match ld.Binary.payload with
         | None -> false
         | Some p ->
           Buffer.add_string buf p;
           add_imports world buf ld)
    in
    if ld_ok && add_imports world buf bin then
      Some (Digest.string (Buffer.contents buf))
    else None

(* Temporal split of a resolved footprint (see {!Phase}): the API sets
   a binary can request during initialization and while serving. The
   split never sharpens the total — any item the attribution walk
   could not place (rodata sweep strings, unresolved dispatch) is
   re-widened into both phases, so [init ∪ serving == total] holds
   bit-for-bit and unphased consumers are unaffected. *)
let phased_footprint world (bin : Binary.t) ~(total : Footprint.t) :
    Api.Set.t * Api.Set.t =
  let total_apis = total.Footprint.apis in
  let a = Phase.attribute bin in
  if not a.Phase.a_transitioned then begin
    (* No loop reached from the entry: no transition point, the whole
       footprint belongs to both phases. *)
    Lapis_perf.Stage.incr "phase:no-transition";
    (total_apis, total_apis)
  end
  else begin
    let libcish = libcish world bin in
    let expand imports =
      (imports_footprint world ~importer_is_libc:libcish imports)
        .Footprint.apis
    in
    let init =
      Api.Set.union a.Phase.a_init (expand a.Phase.a_init_imports)
    in
    let serving =
      Api.Set.union a.Phase.a_serving (expand a.Phase.a_serving_imports)
    in
    (* The dynamic linker runs before main: its startup work is init. *)
    let init =
      match bin.Binary.image.Lapis_elf.Image.interp with
      | Some _ -> Api.Set.union init (ld_so_footprint world).Footprint.apis
      | None -> init
    in
    (* Clamp to the total (phased expansion can only see a subset of
       the resolution paths the total took), then re-widen whatever
       neither phase claimed. *)
    let init = Api.Set.inter init total_apis in
    let serving = Api.Set.inter serving total_apis in
    let residue = Api.Set.diff total_apis (Api.Set.union init serving) in
    let n = Api.Set.cardinal residue in
    if n > 0 then Lapis_perf.Stage.incr ~by:n "phase:widened";
    (Api.Set.union init residue, Api.Set.union serving residue)
  end

(* Direct (intra-binary) footprint: what this binary's own
   instructions request, before any library resolution. Used for the
   Table 1/2 attribution of "who issues this call directly". *)
let direct_footprint (bin : Binary.t) : Footprint.t =
  let fp =
    Hashtbl.fold
      (fun _ fi acc -> Footprint.union acc fi.Binary.fi_scan.Scan.direct)
      bin.Binary.fns Footprint.empty
  in
  Footprint.union fp bin.Binary.rodata_strings
