(* Correctness verdicts: an item run fails if it raised, if its answer
   differs from the independent oracle, or if its compiled size differs
   between passes. *)

type outcome = (Routes.answer, string) result

let attempt f : outcome =
  match f () with a -> Ok a | exception e -> Error (Printexc.to_string e)

(* Per item: the oracle's value; each pass's outcome must match it, and
   every pass must report the first pass's size. *)
let check items oracle (outcomes : outcome list array) report =
  let failed = ref 0 and attempted = ref 0 in
  Array.iteri
    (fun i outs ->
      let size0 =
        List.find_map (function Ok a -> Some a.Routes.size | Error _ -> None)
          (List.rev outs)
      in
      List.iter
        (fun out ->
          incr attempted;
          let bad =
            match (out, oracle.(i)) with
            | Error e, _ -> Some ("raised " ^ e)
            | _, Error e -> Some ("oracle raised " ^ e)
            | Ok a, Ok v when not (Oracle.value_equal a.Routes.value v) ->
              Some
                (Printf.sprintf "answer %s, oracle %s"
                   (Oracle.value_to_string a.Routes.value)
                   (Oracle.value_to_string v))
            | Ok a, Ok _ when Some a.Routes.size <> size0 ->
              Some "size differs between passes"
            | Ok _, Ok _ -> None
          in
          match bad with
          | None -> ()
          | Some why ->
            incr failed;
            report items.(i) why)
        outs)
    outcomes;
  (!attempted, !failed)

let oracle_answers items =
  Array.map
    (fun it ->
      match Oracle.answer it with
      | v -> Ok v
      | exception e -> Error (Printexc.to_string e))
    items

