(* Tests for the embedded API databases: table integrity, the stage
   partition, vectored opcodes, pseudo-files, the libc catalogue and
   the system/libc-variant profiles. *)

open Core.Apidb

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- syscall table --------------------------------------------------- *)

let test_table_size () =
  check "x86-64 Linux 3.19 defines numbers 0..322" 323 Syscall_table.count

let test_table_roundtrip () =
  Array.iter
    (fun (e : Syscall_table.entry) ->
      check ("nr_of_name " ^ e.Syscall_table.name) e.Syscall_table.nr
        (Syscall_table.nr_of_name_exn e.Syscall_table.name);
      Alcotest.(check string)
        "name_of_nr" e.Syscall_table.name
        (Syscall_table.name_of_nr e.Syscall_table.nr))
    Syscall_table.all

let test_known_numbers () =
  List.iter
    (fun (name, nr) -> check name nr (Syscall_table.nr_of_name_exn name))
    [ ("read", 0); ("write", 1); ("open", 2); ("close", 3); ("ioctl", 16);
      ("fcntl", 72); ("prctl", 157); ("clone", 56); ("execve", 59);
      ("exit_group", 231); ("openat", 257); ("faccessat", 269);
      ("pipe2", 293); ("seccomp", 317); ("execveat", 322) ]

let test_statuses () =
  check "five retired-but-tried calls" 5
    (List.length Syscall_table.retired_tried);
  check "ten numbers without entry points" 10
    (List.length Syscall_table.no_entry);
  check_bool "nfsservctl is retired-but-tried" true
    (List.mem "nfsservctl" Syscall_table.retired_tried_names);
  check_bool "tuxcall has no entry point" true
    (List.mem "tuxcall" Syscall_table.no_entry_names)

let test_unknown_name () =
  Alcotest.check_raises "unknown name raises"
    (Invalid_argument "Syscall_table.nr_of_name_exn: not_a_syscall")
    (fun () -> ignore (Syscall_table.nr_of_name_exn "not_a_syscall"))

(* --- stages ----------------------------------------------------------- *)

let test_stage_sizes () =
  check "stage I" 40 (List.length Stages.stage1);
  check "stage II" 41 (List.length Stages.stage2);
  check "stage III" 64 (List.length Stages.stage3);
  check "stage IV" 57 (List.length Stages.stage4);
  check "stage V" 70 (List.length Stages.stage5);
  check "staged total (Table 4)" 272 (List.length (Stages.cumulative 5))

let test_stage_partition () =
  (* every syscall is classified exactly once *)
  let seen = Hashtbl.create 512 in
  let add names =
    List.iter
      (fun n ->
        check_bool ("no duplicate classification: " ^ n) false
          (Hashtbl.mem seen n);
        Hashtbl.replace seen n ())
      names
  in
  add Stages.stage1;
  add Stages.stage2;
  add Stages.stage3;
  add Stages.stage4;
  add Stages.stage5;
  add Stages.tail;
  add Stages.unused;
  add Syscall_table.retired_tried_names;
  add Syscall_table.no_entry_names;
  Array.iter
    (fun (e : Syscall_table.entry) ->
      check_bool ("classified: " ^ e.Syscall_table.name) true
        (Hashtbl.mem seen e.Syscall_table.name))
    Syscall_table.all;
  check "classification covers exactly the table" Syscall_table.count
    (Hashtbl.length seen)

let test_stage_samples () =
  (* the sample calls Table 4 lists must be in the right stage *)
  let expect stage names =
    List.iter
      (fun n ->
        Alcotest.(check string)
          ("Table 4 sample " ^ n)
          (Stages.stage_name stage)
          (Stages.stage_name (Stages.stage_of_name n)))
      names
  in
  expect Stages.S1 [ "mmap"; "vfork"; "read"; "gettid"; "fcntl"; "getcwd" ];
  expect Stages.S2 [ "mremap"; "ioctl"; "access"; "socket"; "poll"; "pipe" ];
  expect Stages.S3 [ "sigaltstack"; "shutdown"; "listen"; "getxattr"; "sync" ];
  expect Stages.S4 [ "flock"; "semget"; "ppoll"; "mount"; "brk"; "reboot" ]

let test_stage_bands () =
  let lo, hi = Stages.importance_band Stages.S1 in
  check_bool "stage I band is ~100%" true (lo > 0.99 && hi = 1.0);
  let lo, hi = Stages.importance_band Stages.Unused in
  check_bool "unused band is zero" true (lo = 0.0 && hi = 0.0)

(* --- vectored opcodes -------------------------------------------------- *)

let test_vectored_counts () =
  check "ioctl codes in Linux 3.19" 635 (List.length Vectored.ioctl_ops);
  check "fcntl codes" 18 (List.length Vectored.fcntl_ops);
  check_bool "prctl codes (43 values defined)" true
    (List.length Vectored.prctl_ops >= 42)

let test_vectored_tiers () =
  let ubiq v = List.length (Vectored.with_tier v Vectored.Ubiquitous) in
  check "52 ubiquitous ioctl codes (Figure 4)" 52 (ubiq Lapis_apidb.Api.Ioctl);
  check "11 ubiquitous fcntl codes (Figure 5)" 11 (ubiq Lapis_apidb.Api.Fcntl);
  check "9 ubiquitous prctl codes (Figure 5)" 9 (ubiq Lapis_apidb.Api.Prctl)

let test_vectored_unique_codes () =
  List.iter
    (fun vector ->
      let codes =
        List.map (fun (o : Vectored.op) -> o.Vectored.code)
          (Vectored.ops_of_vector vector)
      in
      check
        (Lapis_apidb.Api.vector_name vector ^ " codes are unique")
        (List.length codes)
        (List.length (List.sort_uniq compare codes)))
    [ Lapis_apidb.Api.Ioctl; Lapis_apidb.Api.Fcntl; Lapis_apidb.Api.Prctl ]

let test_vectored_lookup () =
  Alcotest.(check string)
    "TCGETS found" "TCGETS"
    (Vectored.name Lapis_apidb.Api.Ioctl 0x5401);
  Alcotest.(check string)
    "unknown code formatted" "ioctl:0xdeadbeef"
    (Vectored.name Lapis_apidb.Api.Ioctl 0xDEADBEEF)

(* --- pseudo files ------------------------------------------------------ *)

let test_pseudo_paths () =
  check_bool "at least 90 catalogued paths" true (Pseudo_files.count >= 90);
  List.iter
    (fun p ->
      check_bool ("catalogued path is pseudo: " ^ p) true
        (Pseudo_files.is_pseudo_path p))
    (List.map (fun e -> e.Pseudo_files.path) Pseudo_files.all);
  check_bool "/etc/passwd is not a pseudo path" false
    (Pseudo_files.is_pseudo_path "/etc/passwd");
  check_bool "/dev/null is essential" true
    (match Pseudo_files.find "/dev/null" with
     | Some e -> e.Pseudo_files.tier = Pseudo_files.Essential
     | None -> false)

let test_pseudo_unique () =
  let paths = List.map (fun e -> e.Pseudo_files.path) Pseudo_files.all in
  check "no duplicate paths" (List.length paths)
    (List.length (List.sort_uniq compare paths))

(* --- libc catalogue ---------------------------------------------------- *)

let test_libc_size () =
  check_bool "catalogue models the glibc surface (>= 1274 exports)" true
    (Libc_catalog.count >= 1274)

let test_libc_unique () =
  let names = List.map (fun e -> e.Libc_catalog.name) Libc_catalog.all in
  check "no duplicate exports" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_libc_syscalls_valid () =
  (* every syscall a libc function claims to issue must exist *)
  List.iter
    (fun (e : Libc_catalog.entry) ->
      List.iter
        (fun s ->
          check_bool
            (Printf.sprintf "%s issues a real syscall %s" e.Libc_catalog.name s)
            true
            (Option.is_some (Syscall_table.nr_of_name s)))
        e.Libc_catalog.syscalls)
    Libc_catalog.all

let test_libc_chk_bases () =
  (* every fortified __foo_chk has its base foo in the catalogue *)
  List.iter
    (fun (e : Libc_catalog.entry) ->
      match e.Libc_catalog.chk_of with
      | Some base ->
        check_bool ("base of " ^ e.Libc_catalog.name ^ " exists") true
          (Libc_catalog.mem base)
      | None -> ())
    Libc_catalog.all

let test_libc_tier_fractions () =
  let frac t =
    float_of_int (List.length (Libc_catalog.with_tier t))
    /. float_of_int Libc_catalog.count
  in
  (* Figure 7 calibration: 42.8% ubiquitous, long unused tail *)
  check_bool "ubiquitous fraction near 42.8%" true
    (abs_float (frac Libc_catalog.Ubiquitous -. 0.428) < 0.02);
  check_bool "unused tail exists" true (frac Libc_catalog.Unused > 0.10)

let test_libc_startup () =
  (* startup footprints name real syscalls and cover Table 5's samples *)
  List.iter
    (fun lib ->
      List.iter
        (fun s ->
          check_bool ("startup syscall exists: " ^ s) true
            (Option.is_some (Syscall_table.nr_of_name s)))
        (Libc_catalog.startup_footprint lib))
    [ Libc_catalog.Libc; Libc_catalog.Libpthread; Libc_catalog.Librt;
      Libc_catalog.Libdl; Libc_catalog.Ld_so ];
  check_bool "ld.so startup includes access (Table 5)" true
    (List.mem "access" (Libc_catalog.startup_footprint Libc_catalog.Ld_so));
  check_bool "libpthread startup includes set_robust_list (Table 5)" true
    (List.mem "set_robust_list"
       (Libc_catalog.startup_footprint Libc_catalog.Libpthread))

let test_libc_wrappers () =
  List.iter
    (fun (name, syscall) ->
      match Libc_catalog.find name with
      | None -> Alcotest.failf "missing catalogue entry %s" name
      | Some e ->
        check_bool
          (Printf.sprintf "%s wraps %s" name syscall)
          true
          (List.mem syscall e.Libc_catalog.syscalls))
    [ ("fork", "clone"); ("signal", "rt_sigaction"); ("sleep", "nanosleep");
      ("getrlimit", "prlimit64"); ("readdir", "getdents");
      ("pthread_create", "sched_setscheduler"); ("eventfd", "eventfd2") ]

(* --- variants ----------------------------------------------------------- *)

let test_variants_valid () =
  List.iter
    (fun (f : Variants.family) ->
      List.iter
        (fun (m : Variants.member) ->
          check_bool ("variant member exists: " ^ m.Variants.syscall) true
            (Option.is_some (Syscall_table.nr_of_name m.Variants.syscall));
          check_bool "paper value is a probability" true
            (m.Variants.paper_unweighted >= 0.0
             && m.Variants.paper_unweighted <= 1.0))
        f.Variants.members)
    Variants.families

let test_variants_table8 () =
  (* access (74.24%) vs faccessat (0.63%) is the headline row *)
  Alcotest.(check (option (float 1e-9)))
    "access target" (Some 0.7424)
    (Variants.adoption_target "access");
  Alcotest.(check (option (float 1e-9)))
    "faccessat target" (Some 0.0063)
    (Variants.adoption_target "faccessat")

(* --- systems & libc variants -------------------------------------------- *)

let test_systems () =
  check "five evaluated systems (Table 6)" 5 (List.length Systems.profiles);
  List.iter
    (fun (p : Systems.profile) ->
      List.iter
        (fun m ->
          check_bool (p.Systems.name ^ " missing call exists: " ^ m) true
            (Option.is_some (Syscall_table.nr_of_name m)))
        p.Systems.missing)
    Systems.profiles

let test_supported_set () =
  let ranking =
    List.init Syscall_table.count (fun i -> i)
  in
  let graphene = Option.get (Systems.find "Graphene") in
  let set = Systems.supported_set ~ranking graphene in
  check "set has the declared size" graphene.Systems.supported_count
    (List.length set);
  let sched = Syscall_table.nr_of_name_exn "sched_setscheduler" in
  check_bool "explicitly-missing calls are excluded" false
    (List.mem sched set)

let test_libc_variant_profiles () =
  let find name =
    List.find (fun p -> p.Libc_variants.name = name) Libc_variants.profiles
  in
  let eglibc = find "eglibc 2.19" and diet = find "dietlibc 0.33" in
  (* eglibc exports everything; dietlibc strictly less *)
  let count p =
    List.length
      (List.filter
         (fun (e : Libc_catalog.entry) ->
           p.Libc_variants.exports e.Libc_catalog.name)
         Libc_catalog.all)
  in
  check "eglibc covers the whole surface" Libc_catalog.count (count eglibc);
  check_bool "dietlibc is much smaller" true
    (count diet < Libc_catalog.count / 2);
  check_bool "dietlibc lacks memalign" false (diet.Libc_variants.exports "memalign");
  check_bool "dietlibc lacks __cxa_finalize" false
    (diet.Libc_variants.exports "__cxa_finalize")

let test_normalize () =
  Alcotest.(check string) "chk normalization" "printf"
    (Libc_variants.normalize "__printf_chk");
  Alcotest.(check string) "plain symbols unchanged" "printf"
    (Libc_variants.normalize "printf")

(* --- Api order ---------------------------------------------------- *)

(* [Api.compare] is hand-written but must be exactly the structural
   order: sets iterate, snapshots serialize and the index interns in
   it. Ints cover both signs and the extremes; strings come from a
   tiny alphabet so shared prefixes and the empty string are common. *)
let gen_api =
  QCheck2.Gen.(
    let int =
      oneof
        [ int_range (-3) 3;
          int;
          oneofl [ min_int; max_int; min_int + 1; max_int - 1 ] ]
    in
    let str = string_size ~gen:(oneofl [ 'a'; 'b'; '/' ]) (int_range 0 4) in
    let vector = oneofl [ Api.Ioctl; Api.Fcntl; Api.Prctl ] in
    oneof
      [ map (fun n -> Api.Syscall n) int;
        map2 (fun v n -> Api.Vop (v, n)) vector int;
        map (fun s -> Api.Pseudo_file s) str;
        map (fun s -> Api.Libc_sym s) str ])

let gen_api_pair =
  QCheck2.Gen.(
    let* a = gen_api in
    (* a third of the pairs compare a value with a copy of itself *)
    let* b = oneof [ gen_api; gen_api; return a ] in
    return (a, b))

let print_api_pair (a, b) =
  Printf.sprintf "%s vs %s" (Api.to_string a) (Api.to_string b)

let prop_compare_is_structural =
  QCheck2.Test.make ~count:2000 ~name:"Api.compare has Stdlib.compare's order"
    ~print:print_api_pair gen_api_pair (fun (a, b) ->
      let sign x = Int.compare x 0 in
      sign (Api.compare a b) = sign (Stdlib.compare a b)
      && Api.equal a b = (a = b))

let () =
  Alcotest.run "apidb"
    [ ( "syscall-table",
        [ Alcotest.test_case "size" `Quick test_table_size;
          Alcotest.test_case "roundtrip" `Quick test_table_roundtrip;
          Alcotest.test_case "known numbers" `Quick test_known_numbers;
          Alcotest.test_case "statuses" `Quick test_statuses;
          Alcotest.test_case "unknown name" `Quick test_unknown_name ] );
      ( "stages",
        [ Alcotest.test_case "sizes" `Quick test_stage_sizes;
          Alcotest.test_case "partition" `Quick test_stage_partition;
          Alcotest.test_case "table4 samples" `Quick test_stage_samples;
          Alcotest.test_case "bands" `Quick test_stage_bands ] );
      ( "vectored",
        [ Alcotest.test_case "counts" `Quick test_vectored_counts;
          Alcotest.test_case "tiers" `Quick test_vectored_tiers;
          Alcotest.test_case "unique codes" `Quick test_vectored_unique_codes;
          Alcotest.test_case "lookup" `Quick test_vectored_lookup ] );
      ( "pseudo-files",
        [ Alcotest.test_case "paths" `Quick test_pseudo_paths;
          Alcotest.test_case "unique" `Quick test_pseudo_unique ] );
      ( "libc-catalogue",
        [ Alcotest.test_case "size" `Quick test_libc_size;
          Alcotest.test_case "unique" `Quick test_libc_unique;
          Alcotest.test_case "syscalls valid" `Quick test_libc_syscalls_valid;
          Alcotest.test_case "chk bases" `Quick test_libc_chk_bases;
          Alcotest.test_case "tier fractions" `Quick test_libc_tier_fractions;
          Alcotest.test_case "startup footprints" `Quick test_libc_startup;
          Alcotest.test_case "wrappers" `Quick test_libc_wrappers ] );
      ( "variants",
        [ Alcotest.test_case "valid" `Quick test_variants_valid;
          Alcotest.test_case "table 8 targets" `Quick test_variants_table8 ] );
      ( "systems",
        [ Alcotest.test_case "profiles" `Quick test_systems;
          Alcotest.test_case "supported set" `Quick test_supported_set;
          Alcotest.test_case "libc variants" `Quick test_libc_variant_profiles;
          Alcotest.test_case "normalize" `Quick test_normalize ] );
      ( "api-order",
        List.map QCheck_alcotest.to_alcotest [ prop_compare_is_structural ] )
    ]
