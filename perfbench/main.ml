(* The benchmark's command line: run one workload, print every metric
   of the mode by name with its unit, then one JSON result line.

     main.exe --workload serve-hot|fig7-paper|ingest-wal --seed N
              --seconds S --trace 0|1

   Exits 1 when any operation failed or mismatched its oracle. *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME serve-hot, fig7-paper or ingest-wal");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S seconds to measure");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run, or traced per-layer run") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let trace =
    match !trace with 0 -> false | 1 -> true | _ -> raise (Arg.Bad "--trace takes 0 or 1")
  in
  match Perfbench.Workloads.find !workload with
  | None ->
    prerr_endline ("unknown workload " ^ !workload);
    exit 2
  | Some run ->
    let o = run ~seed:!seed ~seconds:!seconds ~trace in
    print_string (Perfbench.Output.render ~workload:!workload ~seed:!seed ~trace o);
    exit (if o.Perfbench.Measure.failed = 0 then 0 else 1)
