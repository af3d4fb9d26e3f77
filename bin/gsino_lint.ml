(* gsino_lint — static analysis of routing solutions.

   Runs one or more flows (on a generated benchmark or a saved netlist
   file) and audits every result with the Eda_check invariant rules,
   printing coded GSL diagnostics.  Exit status: 0 when no
   Error-severity finding fired, 1 otherwise — so CI can gate on it.

   Shared flags (flow options, --trace/--metrics sinks, -v/-q, --jobs,
   circuit selection) come from Cli_common; the run itself is
   Gsino.Options.route, the recipe the serve daemon also runs. *)
open Cmdliner
open Gsino
module Diag = Eda_check.Diag
module C = Cli_common

let netlist_file_arg =
  C.netlist_file_arg
    ~doc:"Audit FILE (gsino-netlist v1) instead of a generated circuit."

let lint circuit scale (o : Options.t) kinds jobs netlist_file pretty max_print
    errors_only sinks progress verbose quiet =
  let claimed = C.claim_stdout ~prog:"gsino_lint" sinks in
  let out = C.out_formatter ~claimed in
  C.with_obs ~pretty ~prog:"gsino_lint" ~progress ~sinks ~verbose ~quiet
  @@ fun () ->
  let tech = Tech.default in
  let netlist = C.netlist_of tech ~circuit ~scale ~seed:o.seed netlist_file in
  let config = Options.to_config ~jobs o in
  let lint_one r diags =
    C.print_diags out ~pretty ~max_print ~errors_only diags;
    Format.fprintf out "gsino_lint: %s on %s: %a@."
      (Flow.kind_name r.Flow.kind)
      netlist.Eda_netlist.Netlist.name Diag.pp_summary diags;
    diags
  in
  let all =
    List.concat (Options.route ~kinds ~config tech o netlist lint_one)
  in
  if Diag.has_errors all then C.exit_findings else C.exit_ok

let cmd =
  let doc = "Check routing-solution invariants and report coded diagnostics" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs a GSINO flow and statically checks the resulting routing \
         solution: routes on-grid, connected and acyclic; track and shield \
         accounting consistent; Phase-I Kth bounds partitioned from the LSK \
         budget; SINO panels covering every occupied region.  Findings are \
         printed one per line as '$(b,GSL)NNNN E|W|I locus message'.";
      `P "Exits 0 when no Error-severity diagnostic fired, 1 otherwise.";
    ]
  in
  Cmd.v
    (Cmd.info "gsino_lint" ~version:"1.0.0" ~doc ~man)
    Term.(
      const lint $ C.circuit_arg $ C.scale_arg ~default:0.02 ()
      $ C.Opts.(term [ Router; Budgeting; Seed; Rate; Deadline ])
      $ C.Opts.kinds_arg $ C.jobs_arg $ netlist_file_arg $ C.pretty_arg
      $ C.max_print_arg
          ~doc:"Print at most $(docv) diagnostics per flow (0 = unlimited)."
      $ C.errors_only_arg
      $ C.Sinks.(term [ Trace; Profile; Metrics; Journal ])
      $ C.progress_arg $ C.verbose_arg $ C.quiet_arg)

let () = exit (Cmd.eval' cmd)
