(* bench.exe: every registered benchmark row, in run order. Flags, row
   selection, reports and the exit rule live in harness.ml. *)

let () =
  Harness.main
    (Tables.rows
    @ [
        Sim_bench.row;
        Sat_bench.row;
        Par_bench.row;
        Par_bench.probe_row;
        Quantify_bench.row;
        Serve_bench.row;
      ])
