(** Public umbrella API for the Linux API usage study (lapis).

    This library re-exports every component of the reproduction of
    "A Study of Modern Linux API Usage and Compatibility: What to
    Support When You're Supporting" (EuroSys 2016):

    - {!Apidb}: embedded databases — the x86-64 syscall table,
      vectored opcodes, pseudo-files, the glibc export catalogue,
      variant families, and system/libc-variant profiles.
    - {!Elf}, {!X86}, {!Asm}: the binary substrate — ELF64
      reader/writer, the x86-64 instruction subset, and the assembler
      used to synthesize a distribution of real binaries.
    - {!Analysis}: the paper's measurement tool — disassembly,
      call-graph construction, syscall/opcode/pseudo-file extraction,
      and cross-library footprint resolution.
    - {!Distro}: the calibrated synthetic Ubuntu-like distribution and
      popularity-contest model.
    - {!Db}: the in-memory relational store, the end-to-end pipeline
      and versioned world snapshots (analyze once, query many).
    - {!Query}: the indexed compatibility query engine and the
      line-delimited JSON serving loop behind [lapis query]/[serve].
    - {!Fuzz}: the mutational fuzz harness that hardens the ingestion
      path — seeded ELF mutations driven through parse/analyze/resolve
      with structured-error and crash-containment assertions.
    - {!Metrics}: API importance, weighted completeness, unweighted
      importance, footprint uniqueness, and the Monte-Carlo validator.
    - {!Study}: one module per figure/table of the paper's evaluation.
    - {!Report}: plain-text rendering for the experiment harness.

    Quickstart:
    {[
      let env = Core.Study.Env.create () in
      print_string Core.Study.(Fig3.render (Fig3.run env))
    ]} *)

module Apidb = struct
  module Api = Lapis_apidb.Api
  module Syscall_table = Lapis_apidb.Syscall_table
  module Stages = Lapis_apidb.Stages
  module Vectored = Lapis_apidb.Vectored
  module Pseudo_files = Lapis_apidb.Pseudo_files
  module Libc_catalog = Lapis_apidb.Libc_catalog
  module Variants = Lapis_apidb.Variants
  module Systems = Lapis_apidb.Systems
  module Libc_variants = Lapis_apidb.Libc_variants
end

module X86 = struct
  module Insn = Lapis_x86.Insn
  module Encode = Lapis_x86.Encode
  module Decode = Lapis_x86.Decode
end

module Elf = struct
  module Image = Lapis_elf.Image
  module Layout = Lapis_elf.Layout
  module Writer = Lapis_elf.Writer
  module Reader = Lapis_elf.Reader
  module Classify = Lapis_elf.Classify
end

module Asm = struct
  module Program = Lapis_asm.Program
  module Builder = Lapis_asm.Builder
end

module Analysis = struct
  module Footprint = Lapis_analysis.Footprint
  module Scan = Lapis_analysis.Scan
  module Cfg = Lapis_analysis.Cfg
  module Dataflow = Lapis_analysis.Dataflow
  module Summary = Lapis_analysis.Summary
  module Binary = Lapis_analysis.Binary
  module Phase = Lapis_analysis.Phase
  module Resolve = Lapis_analysis.Resolve
  module Trace = Lapis_analysis.Trace
  module Audit = Lapis_analysis.Audit
end

module Distro = struct
  module Rng = Lapis_distro.Rng
  module Package = Lapis_distro.Package
  module Roster = Lapis_distro.Roster
  module Libc_gen = Lapis_distro.Libc_gen
  module Generator = Lapis_distro.Generator
end

module Db = struct
  module Store = Lapis_store.Store
  module Pipeline = Lapis_store.Pipeline
  module Snapshot = Lapis_store.Snapshot
end

module Query = struct
  module Engine = Lapis_query.Query
  module Json = Lapis_query.Json
  module Protocol = Lapis_query.Protocol
  module Serve = Lapis_query.Serve
  module Lru = Lapis_query.Lru
  module Frontend = Lapis_query.Frontend
  module Server = Lapis_query.Server
  module Router = Lapis_query.Router
end

module Fuzz = struct
  module Mutate = Lapis_fuzz.Mutate
  module Harness = Lapis_fuzz.Harness
end

module Metrics = struct
  module Importance = Lapis_metrics.Importance
  module Completeness = Lapis_metrics.Completeness
  module Uniqueness = Lapis_metrics.Uniqueness
  module Montecarlo = Lapis_metrics.Montecarlo
end

module Study = struct
  module Env = Lapis_study.Env
  module Experiments = Lapis_study.Experiments
  module Fig1 = Lapis_study.Fig1
  module Fig2 = Lapis_study.Fig2
  module Fig3 = Lapis_study.Fig3
  module Fig4 = Lapis_study.Fig4
  module Fig5 = Lapis_study.Fig5
  module Fig6 = Lapis_study.Fig6
  module Fig7 = Lapis_study.Fig7
  module Fig8 = Lapis_study.Fig8
  module Table1 = Lapis_study.Table1
  module Table2 = Lapis_study.Table2
  module Table3 = Lapis_study.Table3
  module Table4 = Lapis_study.Table4
  module Table5 = Lapis_study.Table5
  module Table6 = Lapis_study.Table6
  module Table7 = Lapis_study.Table7
  module Variant_tables = Lapis_study.Variant_tables
  module Section6 = Lapis_study.Section6
  module Tracer = Lapis_study.Tracer
  module Precision = Lapis_study.Precision
  module Phases = Lapis_study.Phases
  module Full_path = Lapis_study.Full_path
  module Ablations = Lapis_study.Ablations
end

module Report = struct
  module Render = Lapis_report.Report
end

module Perf = struct
  module Stage = Lapis_perf.Stage
  module Histogram = Lapis_perf.Histogram
  module Parmap = Lapis_perf.Parmap
  module Bitset = Lapis_perf.Bitset
end
