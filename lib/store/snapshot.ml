(** Persistent snapshots of an analyzed world (the analyze-once /
    query-many layer). A snapshot serializes everything the query and
    metrics layers consume — package rows, binary rows with their
    footprints, popcon weights, and the pipeline's quarantine stats —
    into a versioned binary wire format:

    {v
      offset  size  field
      0       8     magic "LAPISNAP"
      8       4     format version (u32 LE)
      12      16    MD5 of the payload
      28      8     payload length (u64 LE)
      36      -     payload
    v}

    The payload is a flat sequence of zigzag-LEB128 varints, raw
    strings and IEEE-754 bit patterns; every multi-byte integer is
    little-endian. Loading re-derives the store's hash indexes from
    the rows, so a loaded store is indistinguishable from the one the
    pipeline built (the test suite checks metric-for-metric equality).

    Format 2 prefixes the rows with an {b API dictionary} — every
    distinct API in the snapshot, written once in a deterministic
    first-seen order — and encodes every API set (package
    requirement sets, binary footprints) as a {!Lapis_perf.Bitset}
    over that dictionary: one bit per dictionary entry instead of a
    re-serialized API per element. The dictionary order is a pure
    function of the rows, so decode → re-encode reproduces the file
    byte for byte. Format 1 files (element-wise sets) still load.

    Format 3 appends the {b temporal attribution} to every row: the
    init-phase and serving-phase API sets of each package
    ([pr_init]/[pr_serving]) and binary ([br_init]/[br_serving]),
    encoded as dictionary bitsets like every other set. Format 1 and
    2 files still load, with both phases defaulting to the row's full
    footprint — the correct conservative reading for a snapshot that
    predates the phase analysis.

    Decoding never raises: stale, truncated or corrupted files come
    back as a structured {!error}, following the taxonomy discipline
    of {!Lapis_elf.Reader}. The payload digest makes corruption
    detection O(n) before any structural decoding happens, and the
    [source_key] in the metadata keys the generator identity
    (config + seed) so a cache can tell a stale snapshot from a
    current one without regenerating anything. *)

open Lapis_apidb
module P = Lapis_distro.Package
module Footprint = Lapis_analysis.Footprint
module Classify = Lapis_elf.Classify

let magic = "LAPISNAP"

(* The version line shares one numbering space with the sibling
   formats: version 6 is the row snapshot decoded here, version 4 is
   the query engine's mmap-able index image, version 5 is a delta
   snapshot that can only be decoded against its base (see
   [apply_delta]). Versions 1-3 were earlier row formats; nothing
   writes them any more and this build refuses them. *)
let format_version = 6
let delta_version = 5
let image_version = 4  (* owned by the query engine's mapped loader *)
let header_len = 8 + 4 + 16 + 8

type meta = {
  version : int;
  seed : int;  (** generator seed the corpus came from *)
  n_packages : int;
  total_installs : int;
  source_key : string;
      (** hex digest of the generator identity (config + seed): the
          snapshot invalidation rule *)
  release : int;
      (** evolution release the world was at; 0 for formats that
          predate the living-distribution work (the only release they
          could have been written from) *)
}

type t = {
  meta : meta;
  store : Store.t;
  rejects : (string * int) list;  (** quarantine counters of the run *)
}

type error =
  | Not_snapshot
  | Unsupported_version of int
  | Truncated of string
  | Digest_mismatch
  | Corrupt of string
  | Io of string
  | Needs_base of string
  | Base_mismatch of string * string

let kind_name = function
  | Not_snapshot -> "not-snapshot"
  | Unsupported_version _ -> "unsupported-version"
  | Truncated _ -> "truncated"
  | Digest_mismatch -> "digest-mismatch"
  | Corrupt _ -> "corrupt"
  | Io _ -> "io"
  | Needs_base _ -> "needs-base"
  | Base_mismatch _ -> "base-mismatch"

let pp_error ppf = function
  | Not_snapshot -> Fmt.pf ppf "not a lapis snapshot (bad magic)"
  | Unsupported_version v ->
    Fmt.pf ppf "unsupported snapshot version %d (this build reads %d)" v
      format_version
  | Truncated what -> Fmt.pf ppf "truncated snapshot: %s" what
  | Digest_mismatch -> Fmt.pf ppf "payload digest mismatch (corrupted file)"
  | Corrupt what -> Fmt.pf ppf "corrupt snapshot: %s" what
  | Io msg -> Fmt.pf ppf "snapshot i/o error: %s" msg
  | Needs_base digest ->
    Fmt.pf ppf
      "delta snapshot: needs its base snapshot (digest %s) to decode"
      digest
  | Base_mismatch (expected, got) ->
    Fmt.pf ppf
      "delta snapshot: wrong base (delta expects digest %s, base has %s)"
      expected got

(* The key's release-0 spelling is frozen: every format 1-4 file on
   disk stores exactly this string for its world, so the default must
   keep reproducing it byte for byte. *)
let source_key ?(release = 0) ~seed ~n_packages ~total_installs () =
  let identity =
    if release = 0 then
      Printf.sprintf "lapis-generator:%d:%d:%d" seed n_packages
        total_installs
    else
      Printf.sprintf "lapis-generator:%d:%d:%d:r%d" seed n_packages
        total_installs release
  in
  Digest.to_hex (Digest.string identity)

let of_analyzed (a : Pipeline.analyzed) : t =
  let dist = a.Pipeline.dist in
  let store = a.Pipeline.store in
  {
    meta =
      {
        version = format_version;
        seed = dist.P.seed;
        n_packages = store.Store.n_packages;
        total_installs = dist.P.total_installs;
        (* keyed by the *requested* package count, not the actual row
           count: small corpora are padded up to the generator's fixed
           roster, and [matches] only sees the requested count in the
           config it is handed *)
        source_key =
          source_key ~release:dist.P.release ~seed:dist.P.seed
            ~n_packages:dist.P.n_requested
            ~total_installs:dist.P.total_installs ();
        release = dist.P.release;
      };
    store;
    rejects =
      a.Pipeline.world.Lapis_analysis.Resolve.stats
        .Lapis_analysis.Resolve.rejects;
  }

let matches ?(release = 0) (t : t) (config : Lapis_distro.Generator.config) =
  t.meta.source_key
  = source_key ~release ~seed:config.Lapis_distro.Generator.seed
      ~n_packages:config.Lapis_distro.Generator.n_packages
      ~total_installs:config.Lapis_distro.Generator.total_installs ()

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

(* Unsigned LEB128 over the native int's bit pattern. *)
let w_varint b n =
  let n = ref n in
  let stop = ref false in
  while not !stop do
    let byte = !n land 0x7f in
    n := !n lsr 7;
    if !n = 0 then begin
      Buffer.add_char b (Char.chr byte);
      stop := true
    end
    else Buffer.add_char b (Char.chr (byte lor 0x80))
  done

(* Zigzag so small negative ints stay small on the wire. *)
let w_int b i = w_varint b ((i lsl 1) lxor (i asr 62))

let w_str b s =
  w_varint b (String.length s);
  Buffer.add_string b s

let w_float b f =
  let scratch = Bytes.create 8 in
  Bytes.set_int64_le scratch 0 (Int64.bits_of_float f);
  Buffer.add_bytes b scratch

let w_bool b v = Buffer.add_char b (if v then '\001' else '\000')

let w_list b w items =
  w_varint b (List.length items);
  List.iter (w b) items

let w_digest b (d : Digest.t) =
  (* a Digest.t is exactly 16 raw bytes *)
  Buffer.add_string b (d : string)

let w_api b = function
  | Api.Syscall nr ->
    Buffer.add_char b '\000';
    w_int b nr
  | Api.Vop (v, code) ->
    Buffer.add_char b '\001';
    Buffer.add_char b
      (match v with Api.Ioctl -> '\000' | Api.Fcntl -> '\001' | Api.Prctl -> '\002');
    w_int b code
  | Api.Pseudo_file path ->
    Buffer.add_char b '\002';
    w_str b path
  | Api.Libc_sym name ->
    Buffer.add_char b '\003';
    w_str b name

(* Format 2 dictionary: every API in the snapshot, interned in the
   order the writer meets the sets (packages first, then binaries,
   each set in [Api.Set] order). That order is a pure function of the
   rows, which is what makes decode -> re-encode byte-identical. *)
type dict = { d_apis : Api.t array; d_ids : int Api.Tbl.t }

let build_dict (packages : Store.pkg_row list) (bins : Store.bin_row list) :
    dict =
  let d_ids = Api.Tbl.create 4096 in
  let rev = ref [] in
  let n = ref 0 in
  let intern api =
    if not (Api.Tbl.mem d_ids api) then begin
      Api.Tbl.add d_ids api !n;
      incr n;
      rev := api :: !rev
    end
  in
  let set s = Api.Set.iter intern s in
  List.iter
    (fun (p : Store.pkg_row) ->
      set p.Store.pr_apis;
      set p.Store.pr_apis_elf;
      set p.Store.pr_init;
      set p.Store.pr_serving)
    packages;
  List.iter
    (fun (r : Store.bin_row) ->
      set r.Store.br_direct.Footprint.apis;
      set r.Store.br_resolved.Footprint.apis;
      set r.Store.br_init;
      set r.Store.br_serving)
    bins;
  { d_apis = Array.of_list (List.rev !rev); d_ids }

let w_dict b (dict : dict) =
  w_varint b (Array.length dict.d_apis);
  Array.iter (w_api b) dict.d_apis

(* A set on the format-2 wire is its bitset over the dictionary
   universe, length-prefixed ({!Lapis_perf.Bitset.to_bytes} length is
   fixed by the universe, but the prefix keeps the row format
   self-delimiting). *)
let w_api_set_packed b (dict : dict) set =
  let bits = Lapis_perf.Bitset.create (Array.length dict.d_apis) in
  Api.Set.iter (fun a -> Lapis_perf.Bitset.add bits (Api.Tbl.find dict.d_ids a)) set;
  w_str b (Lapis_perf.Bitset.to_bytes bits)

let w_footprint b dict (fp : Footprint.t) =
  w_api_set_packed b dict fp.Footprint.apis;
  w_varint b (Footprint.String_set.cardinal fp.Footprint.imports);
  Footprint.String_set.iter (w_str b) fp.Footprint.imports;
  w_int b fp.Footprint.unresolved_sites;
  w_int b fp.Footprint.syscall_sites

let w_class b = function
  | Classify.Elf_static -> Buffer.add_char b '\000'
  | Classify.Elf_dynamic -> Buffer.add_char b '\001'
  | Classify.Elf_shared_lib -> Buffer.add_char b '\002'
  | Classify.Script interp ->
    Buffer.add_char b '\003';
    (match interp with
     | Classify.Dash -> Buffer.add_char b '\000'
     | Classify.Bash -> Buffer.add_char b '\001'
     | Classify.Python -> Buffer.add_char b '\002'
     | Classify.Perl -> Buffer.add_char b '\003'
     | Classify.Ruby -> Buffer.add_char b '\004'
     | Classify.Other_interp s ->
       Buffer.add_char b '\005';
       w_str b s)
  | Classify.Data -> Buffer.add_char b '\004'

let w_pkg_row dict b (p : Store.pkg_row) =
  w_str b p.Store.pr_name;
  w_int b p.Store.pr_installs;
  w_float b p.Store.pr_prob;
  w_list b w_str p.Store.pr_deps;
  w_bool b p.Store.pr_essential;
  w_api_set_packed b dict p.Store.pr_apis;
  w_api_set_packed b dict p.Store.pr_apis_elf;
  w_api_set_packed b dict p.Store.pr_init;
  w_api_set_packed b dict p.Store.pr_serving

let w_bin_row dict b (r : Store.bin_row) =
  w_str b r.Store.br_path;
  w_str b r.Store.br_package;
  w_class b r.Store.br_class;
  w_digest b r.Store.br_digest;
  w_footprint b dict r.Store.br_direct;
  w_footprint b dict r.Store.br_resolved;
  w_api_set_packed b dict r.Store.br_init;
  w_api_set_packed b dict r.Store.br_serving

(* Frame a finished payload with the shared header discipline. *)
let frame ~version payload =
  let out = Buffer.create (header_len + String.length payload) in
  Buffer.add_string out magic;
  let scratch = Bytes.create 8 in
  Bytes.set_int32_le scratch 0 (Int32.of_int version);
  Buffer.add_subbytes out scratch 0 4;
  Buffer.add_string out (Digest.string payload);
  Bytes.set_int64_le scratch 0 (Int64.of_int (String.length payload));
  Buffer.add_bytes out scratch;
  Buffer.add_string out payload;
  Buffer.contents out

let w_meta b (m : meta) =
  w_int b m.seed;
  w_int b m.n_packages;
  w_int b m.total_installs;
  w_str b m.source_key;
  w_int b m.release

let to_string (t : t) : string =
  let b = Buffer.create (1 lsl 20) in
  w_meta b t.meta;
  let packages = Array.to_list t.store.Store.packages in
  let dict = build_dict packages t.store.Store.bins in
  w_dict b dict;
  w_list b (w_pkg_row dict) packages;
  w_list b (w_bin_row dict) t.store.Store.bins;
  w_list b
    (fun b (kind, n) ->
      w_str b kind;
      w_int b n)
    t.rejects;
  frame ~version:format_version (Buffer.contents b)

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)
(* ------------------------------------------------------------------ *)

exception Fail of error

type cursor = { buf : string; mutable pos : int; stop : int }

let need c n what =
  if c.pos + n > c.stop then raise (Fail (Truncated what))

let r_byte c what =
  need c 1 what;
  let v = Char.code c.buf.[c.pos] in
  c.pos <- c.pos + 1;
  v

let r_varint c what =
  let shift = ref 0 and acc = ref 0 and stop = ref false in
  while not !stop do
    if !shift > 62 then raise (Fail (Corrupt ("varint overflow in " ^ what)));
    let byte = r_byte c what in
    acc := !acc lor ((byte land 0x7f) lsl !shift);
    shift := !shift + 7;
    if byte land 0x80 = 0 then stop := true
  done;
  !acc

let r_int c what =
  let z = r_varint c what in
  (z lsr 1) lxor (- (z land 1))

let r_str c what =
  let n = r_varint c what in
  need c n what;
  let s = String.sub c.buf c.pos n in
  c.pos <- c.pos + n;
  s

let r_float c what =
  need c 8 what;
  let v = Int64.float_of_bits (String.get_int64_le c.buf c.pos) in
  c.pos <- c.pos + 8;
  v

let r_bool c what = r_byte c what <> 0

(* Read exactly [n] elements left to right — the cursor is stateful,
   so the evaluation order must be the wire order. *)
let r_list c r what =
  let n = r_varint c what in
  let rec go acc k = if k = 0 then List.rev acc else go (r c :: acc) (k - 1) in
  go [] n

let r_digest c what : Digest.t =
  need c 16 what;
  let s = String.sub c.buf c.pos 16 in
  c.pos <- c.pos + 16;
  s

let r_api c =
  match r_byte c "api" with
  | 0 -> Api.Syscall (r_int c "api.syscall")
  | 1 ->
    let v =
      match r_byte c "api.vector" with
      | 0 -> Api.Ioctl
      | 1 -> Api.Fcntl
      | 2 -> Api.Prctl
      | t -> raise (Fail (Corrupt (Printf.sprintf "unknown vector tag %d" t)))
    in
    Api.Vop (v, r_int c "api.vop")
  | 2 -> Api.Pseudo_file (r_str c "api.pseudo")
  | 3 -> Api.Libc_sym (r_str c "api.libc")
  | t -> raise (Fail (Corrupt (Printf.sprintf "unknown api tag %d" t)))

(* An API set: a bitset over the dictionary read earlier. *)
let r_api_set_packed (dict : Api.t array) c =
  let bytes = r_str c "api-set.bits" in
  match Lapis_perf.Bitset.of_bytes (Array.length dict) bytes with
  | Error msg -> raise (Fail (Corrupt ("api-set bitset: " ^ msg)))
  | Ok bits ->
    Lapis_perf.Bitset.fold (fun id acc -> Api.Set.add dict.(id) acc) bits
      Api.Set.empty

let r_footprint read_set c : Footprint.t =
  let apis = read_set c in
  let n_imports = r_varint c "imports" in
  let rec go acc k =
    if k = 0 then acc
    else go (Footprint.String_set.add (r_str c "import") acc) (k - 1)
  in
  let imports = go Footprint.String_set.empty n_imports in
  let unresolved_sites = r_int c "unresolved-sites" in
  let syscall_sites = r_int c "syscall-sites" in
  { Footprint.apis; imports; unresolved_sites; syscall_sites }

let r_class c =
  match r_byte c "class" with
  | 0 -> Classify.Elf_static
  | 1 -> Classify.Elf_dynamic
  | 2 -> Classify.Elf_shared_lib
  | 3 ->
    Classify.Script
      (match r_byte c "interpreter" with
       | 0 -> Classify.Dash
       | 1 -> Classify.Bash
       | 2 -> Classify.Python
       | 3 -> Classify.Perl
       | 4 -> Classify.Ruby
       | 5 -> Classify.Other_interp (r_str c "interpreter.other")
       | t ->
         raise (Fail (Corrupt (Printf.sprintf "unknown interpreter tag %d" t))))
  | 4 -> Classify.Data
  | t -> raise (Fail (Corrupt (Printf.sprintf "unknown class tag %d" t)))

let r_pkg_row read_set c : Store.pkg_row =
  let pr_name = r_str c "pkg.name" in
  let pr_installs = r_int c "pkg.installs" in
  let pr_prob = r_float c "pkg.prob" in
  let pr_deps = r_list c (fun c -> r_str c "pkg.dep") "pkg.deps" in
  let pr_essential = r_bool c "pkg.essential" in
  let pr_apis = read_set c in
  let pr_apis_elf = read_set c in
  let pr_init = read_set c in
  let pr_serving = read_set c in
  { Store.pr_name; pr_installs; pr_prob; pr_deps; pr_essential; pr_apis;
    pr_apis_elf; pr_init; pr_serving }

let r_bin_row read_set c : Store.bin_row =
  let br_path = r_str c "bin.path" in
  let br_package = r_str c "bin.package" in
  let br_class = r_class c in
  let br_digest = r_digest c "bin.digest" in
  let br_direct = r_footprint read_set c in
  let br_resolved = r_footprint read_set c in
  let br_init = read_set c in
  let br_serving = read_set c in
  { Store.br_path; br_package; br_class; br_digest; br_direct; br_resolved;
    br_init; br_serving }

(* Validate the framing shared by the row and delta formats — magic,
   version, payload digest — and hand back a cursor over the payload.
   Raises [Fail]; callers route on the returned version. *)
let open_payload (s : string) : cursor * int =
  (* judge the magic on whatever prefix is present, so data from a
     different format reads as [Not_snapshot] even when it is also
     shorter than our header, and only genuine prefixes of a real
     snapshot read as [Truncated] *)
  let prefix = min 8 (String.length s) in
  if String.sub s 0 prefix <> String.sub magic 0 prefix then
    raise (Fail Not_snapshot);
  if String.length s < header_len then raise (Fail (Truncated "header"));
  let version = Int32.to_int (String.get_int32_le s 8) in
  (* index images share the magic but not this header layout, so they
     must be refused on the version alone — reading our digest/length
     fields from one would misreport the damage *)
  if version <> format_version && version <> delta_version then
    raise (Fail (Unsupported_version version));
  let stored_digest = String.sub s 12 16 in
  let payload_len = Int64.to_int (String.get_int64_le s 28) in
  if payload_len < 0 || header_len + payload_len > String.length s then
    raise (Fail (Truncated "payload"));
  if header_len + payload_len < String.length s then
    raise (Fail (Corrupt "trailing bytes after payload"));
  if Digest.substring s header_len payload_len <> stored_digest then
    raise (Fail Digest_mismatch);
  ({ buf = s; pos = header_len; stop = header_len + payload_len }, version)

type r_meta = {
  rm_seed : int;
  rm_n_packages : int;
  rm_total_installs : int;
  rm_source_key : string;
  rm_release : int;
}

let r_meta c =
  let rm_seed = r_int c "meta.seed" in
  let rm_n_packages = r_int c "meta.n-packages" in
  let rm_total_installs = r_int c "meta.total-installs" in
  let rm_source_key = r_str c "meta.source-key" in
  let rm_release = r_int c "meta.release" in
  { rm_seed; rm_n_packages; rm_total_installs; rm_source_key; rm_release }

let of_string (s : string) : (t, error) result =
  try
    let c, version = open_payload s in
    let m = r_meta c in
    if version = delta_version then
      (* a delta cannot be decoded standalone: report which base it
         wants so the caller can fetch it *)
      raise (Fail (Needs_base (Digest.to_hex (r_digest c "delta.base"))));
    let seed = m.rm_seed in
    let n_packages = m.rm_n_packages in
    let total_installs = m.rm_total_installs in
    let skey = m.rm_source_key in
    let read_set =
      r_api_set_packed (Array.of_list (r_list c r_api "api-dictionary"))
    in
    let packages = r_list c (r_pkg_row read_set) "packages" in
    let bins = r_list c (r_bin_row read_set) "binaries" in
    let rejects =
      r_list c
        (fun c ->
          let kind = r_str c "reject.kind" in
          let n = r_int c "reject.count" in
          (kind, n))
        "rejects"
    in
    if c.pos <> c.stop then raise (Fail (Corrupt "payload underrun"));
    if List.length packages <> n_packages then
      raise (Fail (Corrupt "package count disagrees with metadata"));
    let store = Store.build ~packages ~bins ~total_installs in
    Ok
      {
        meta =
          { version; seed; n_packages; total_installs; source_key = skey;
            release = m.rm_release };
        store;
        rejects;
      }
  with Fail e -> Error e

(* ------------------------------------------------------------------ *)
(* Delta snapshots (format 5)                                          *)
(* ------------------------------------------------------------------ *)

(* A delta records a new world against a base snapshot it names by
   digest (MD5 of the base's full serialization). Both row sequences
   are written as positional instruction streams — [keep i] reuses the
   base's i-th row verbatim, [new row] carries a full row — so an
   arbitrary mix of unchanged, changed, added, removed and reordered
   rows reproduces exactly, and [to_string (apply_delta base d)] is
   byte-identical to the serialization of the world the delta was made
   from. Rows a release leaves untouched dominate, so a delta is
   orders of magnitude smaller than the full snapshot. The delta
   carries its own API dictionary covering only the rows it ships. *)

let tag_keep = '\000'
let tag_new = '\001'

(* Row identity is field equality, the same relation as serialization
   equality: two rows are the same row iff they would serialize to the
   same bytes under one shared dictionary. Floats compare by bit
   pattern (so [-0.0] and [0.0] differ, as their wire bytes do) and
   API/import sets by membership ([Set.equal] ignores tree shape). The
   hash only reads cheap fields that equal rows agree on. *)
let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_footprint (a : Footprint.t) (b : Footprint.t) =
  a.Footprint.unresolved_sites = b.Footprint.unresolved_sites
  && a.Footprint.syscall_sites = b.Footprint.syscall_sites
  && Api.Set.equal a.Footprint.apis b.Footprint.apis
  && Footprint.String_set.equal a.Footprint.imports b.Footprint.imports

module Pkg_tbl = Hashtbl.Make (struct
  type t = Store.pkg_row

  let equal (a : t) (b : t) =
    String.equal a.Store.pr_name b.Store.pr_name
    && a.Store.pr_installs = b.Store.pr_installs
    && same_bits a.Store.pr_prob b.Store.pr_prob
    && List.equal String.equal a.Store.pr_deps b.Store.pr_deps
    && Bool.equal a.Store.pr_essential b.Store.pr_essential
    && Api.Set.equal a.Store.pr_apis b.Store.pr_apis
    && Api.Set.equal a.Store.pr_apis_elf b.Store.pr_apis_elf
    && Api.Set.equal a.Store.pr_init b.Store.pr_init
    && Api.Set.equal a.Store.pr_serving b.Store.pr_serving

  let hash (p : t) =
    Hashtbl.hash
      (p.Store.pr_name, p.Store.pr_installs, Api.Set.cardinal p.Store.pr_apis)
end)

module Bin_tbl = Hashtbl.Make (struct
  type t = Store.bin_row

  let equal (a : t) (b : t) =
    String.equal a.Store.br_path b.Store.br_path
    && String.equal a.Store.br_package b.Store.br_package
    && a.Store.br_class = b.Store.br_class
    && Digest.equal a.Store.br_digest b.Store.br_digest
    && same_footprint a.Store.br_direct b.Store.br_direct
    && same_footprint a.Store.br_resolved b.Store.br_resolved
    && Api.Set.equal a.Store.br_init b.Store.br_init
    && Api.Set.equal a.Store.br_serving b.Store.br_serving

  let hash (r : t) =
    Hashtbl.hash
      ( r.Store.br_path,
        r.Store.br_package,
        r.Store.br_digest,
        Api.Set.cardinal r.Store.br_resolved.Footprint.apis )
end)

(* The MD5 of a base's full serialization, memoized for the last base
   asked about. A snapshot and its store are immutable, so the digest
   of one value never goes stale; the key is the value's physical
   identity (a [{ s with ... }] copy is a new key), and the ephemeron
   never keeps a dropped base alive. A release stream encodes every
   delta against one base value, so it serializes that base once. *)
let base_digest_memo : (t, Digest.t) Ephemeron.K1.t option Atomic.t =
  Atomic.make None

let base_digest (base : t) : Digest.t =
  match
    Option.bind (Atomic.get base_digest_memo) (fun e ->
        Ephemeron.K1.query e base)
  with
  | Some d -> d
  | None ->
    let d = Digest.string (to_string base) in
    Atomic.set base_digest_memo (Some (Ephemeron.K1.make base d));
    d

let to_delta_string ~(base : t) (cur : t) : string =
  (* first index wins for duplicate base rows *)
  let pkg_index = Pkg_tbl.create (2 * base.store.Store.n_packages) in
  Array.iteri
    (fun i r -> if not (Pkg_tbl.mem pkg_index r) then Pkg_tbl.add pkg_index r i)
    base.store.Store.packages;
  let bin_index = Bin_tbl.create (2 * List.length base.store.Store.bins) in
  List.iteri
    (fun i r -> if not (Bin_tbl.mem bin_index r) then Bin_tbl.add bin_index r i)
    base.store.Store.bins;
  let pkg_instrs =
    Array.to_list cur.store.Store.packages
    |> List.map (fun r -> (r, Pkg_tbl.find_opt pkg_index r))
  in
  let bin_instrs =
    List.map (fun r -> (r, Bin_tbl.find_opt bin_index r)) cur.store.Store.bins
  in
  let fresh instrs =
    List.filter_map (function r, None -> Some r | _, Some _ -> None) instrs
  in
  let dict = build_dict (fresh pkg_instrs) (fresh bin_instrs) in
  let b = Buffer.create (1 lsl 16) in
  w_meta b cur.meta;
  w_digest b (base_digest base);
  w_dict b dict;
  let w_instr w b (r, keep) =
    match keep with
    | Some i ->
      Buffer.add_char b tag_keep;
      w_varint b i
    | None ->
      Buffer.add_char b tag_new;
      w dict b r
  in
  w_list b (w_instr w_pkg_row) pkg_instrs;
  w_list b (w_instr w_bin_row) bin_instrs;
  w_list b
    (fun b (kind, n) ->
      w_str b kind;
      w_int b n)
    cur.rejects;
  frame ~version:delta_version (Buffer.contents b)

let apply_delta ~(base : t) (s : string) : (t, error) result =
  try
    let c, version = open_payload s in
    if version <> delta_version then
      raise (Fail (Unsupported_version version));
    let m = r_meta c in
    let want = r_digest c "delta.base-digest" in
    let have = base_digest base in
    if not (Digest.equal want have) then
      raise (Fail (Base_mismatch (Digest.to_hex want, Digest.to_hex have)));
    let dict = Array.of_list (r_list c r_api "delta.api-dictionary") in
    let read_set = r_api_set_packed dict in
    let base_pkgs = base.store.Store.packages in
    let base_bins = Array.of_list base.store.Store.bins in
    let r_instr arr r_new what c =
      match r_byte c what with
      | 0 ->
        let i = r_varint c what in
        if i >= Array.length arr then
          raise
            (Fail
               (Corrupt
                  (Printf.sprintf "%s: keep index %d out of range (base has %d)"
                     what i (Array.length arr))));
        arr.(i)
      | 1 -> r_new c
      | t ->
        raise
          (Fail (Corrupt (Printf.sprintf "unknown %s instruction tag %d" what t)))
    in
    let packages =
      r_list c
        (r_instr base_pkgs (r_pkg_row read_set) "delta.pkg")
        "delta.packages"
    in
    let bins =
      r_list c
        (r_instr base_bins (r_bin_row read_set) "delta.bin")
        "delta.binaries"
    in
    let rejects =
      r_list c
        (fun c ->
          let kind = r_str c "reject.kind" in
          let n = r_int c "reject.count" in
          (kind, n))
        "delta.rejects"
    in
    if c.pos <> c.stop then raise (Fail (Corrupt "payload underrun"));
    if List.length packages <> m.rm_n_packages then
      raise (Fail (Corrupt "package count disagrees with metadata"));
    let store =
      Store.build ~packages ~bins ~total_installs:m.rm_total_installs
    in
    Ok
      {
        meta =
          { version = format_version; seed = m.rm_seed;
            n_packages = m.rm_n_packages;
            total_installs = m.rm_total_installs;
            source_key = m.rm_source_key; release = m.rm_release };
        store;
        rejects;
      }
  with Fail e -> Error e

let save_delta path ~(base : t) (cur : t) : (unit, error) result =
  match
    let oc = open_out_bin path in
    Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () ->
        output_string oc (to_delta_string ~base cur))
  with
  | () -> Ok ()
  | exception Sys_error msg -> Error (Io msg)

let load_delta path ~(base : t) : (t, error) result =
  match
    let ic = open_in_bin path in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
        really_input_string ic (in_channel_length ic))
  with
  | s -> Lapis_perf.Stage.time "snapshot-load" (fun () -> apply_delta ~base s)
  | exception Sys_error msg -> Error (Io msg)
  | exception End_of_file -> Error (Io (path ^ ": unexpected end of file"))

let save path (t : t) : (unit, error) result =
  match
    let oc = open_out_bin path in
    Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () ->
        output_string oc (to_string t))
  with
  | () -> Ok ()
  | exception Sys_error msg -> Error (Io msg)

let load path : (t, error) result =
  match
    let ic = open_in_bin path in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
        really_input_string ic (in_channel_length ic))
  with
  | s -> Lapis_perf.Stage.time "snapshot-load" (fun () -> of_string s)
  | exception Sys_error msg -> Error (Io msg)
  | exception End_of_file -> Error (Io (path ^ ": unexpected end of file"))

(* Peek at a file's magic + version without decoding: the router that
   lets the CLI send format-4 index images (which share the LAPISNAP
   header but are not row snapshots) to the query engine's mapped
   loader instead of this module's decoder. *)
let file_version path : (int, error) result =
  match
    let ic = open_in_bin path in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
        really_input_string ic (min 12 (in_channel_length ic)))
  with
  | s ->
    let prefix = min 8 (String.length s) in
    if String.sub s 0 prefix <> String.sub magic 0 prefix then
      Error Not_snapshot
    else if String.length s < 12 then Error (Truncated "header")
    else Ok (Int32.to_int (String.get_int32_le s 8))
  | exception Sys_error msg -> Error (Io msg)
  | exception End_of_file -> Error (Io (path ^ ": unexpected end of file"))

(* The primitive codecs, re-exported for sibling wire formats (the
   query engine's format-4 image stores its metadata section in the
   same zigzag-LEB128 encoding). *)
module Wire = struct
  type nonrec cursor = cursor = { buf : string; mutable pos : int; stop : int }

  exception Fail = Fail

  let w_varint = w_varint
  let w_int = w_int
  let w_str = w_str
  let w_float = w_float
  let w_api = w_api
  let cursor ?(pos = 0) ?stop buf =
    { buf; pos; stop = Option.value ~default:(String.length buf) stop }
  let r_byte = r_byte
  let r_varint = r_varint
  let r_int = r_int
  let r_str = r_str
  let r_float = r_float
  let r_api = r_api
end
