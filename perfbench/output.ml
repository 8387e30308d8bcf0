(* Prints a run: its notes, then every metric of the mode by name with
   its value and unit (per-layer metrics beside the end-to-end metric
   they are meant to move), then the one-line JSON result. *)

module J = Xqdb_testbed.Report

let value (o : Measure.outcome) name =
  match Hashtbl.find_opt o.Measure.values name with
  | Some v when Float.is_finite v -> Some v
  | Some v -> failwith (Printf.sprintf "metric %s is not finite (%g)" name v)
  | None -> None

let metrics ~trace (o : Measure.outcome) =
  if trace then
    List.map
      (fun (l : Catalog.layer) ->
        (l.Catalog.l_name, Option.value (value o l.Catalog.l_name) ~default:0., l.Catalog.l_unit, l.Catalog.moves))
      Catalog.per_layer
  else
    List.map
      (fun (e : Catalog.e2e) ->
        match value o e.Catalog.e_name with
        | Some v -> (e.Catalog.e_name, v, e.Catalog.e_unit, "")
        | None -> failwith ("workload did not measure " ^ e.Catalog.e_name))
      Catalog.end_to_end

let render ~workload ~seed ~trace (o : Measure.outcome) =
  let buf = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
  line "workload %s, seed %d, %s run" workload seed (if trace then "traced" else "untraced");
  List.iter (line "%s") o.Measure.notes;
  line "failed_share %.6g (%d failed of %d attempted)"
    (float_of_int o.Measure.failed /. float_of_int (max 1 o.Measure.attempted))
    o.Measure.failed o.Measure.attempted;
  let ms = metrics ~trace o in
  let group = ref "" in
  List.iter
    (fun (name, v, unit_, moves) ->
      if not (String.equal moves !group) then begin
        group := moves;
        line "  -> %s" moves
      end;
      line "%-42s %14.6g %s" name v unit_)
    ms;
  let result =
    J.Obj
      [ ("correct", J.Bool (o.Measure.failed = 0));
        ("attempted", J.Int o.Measure.attempted);
        ("failed", J.Int o.Measure.failed);
        ( "metrics",
          J.Obj
            (List.map
               (fun (name, v, unit_, _) -> (name, J.Obj [ ("value", J.Float v); ("unit", J.Str unit_) ]))
               ms) ) ]
  in
  line "%s" (J.to_string result);
  Buffer.contents buf
