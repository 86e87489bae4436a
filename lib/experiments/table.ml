let time f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

let fi = string_of_int
let ff ?(decimals = 1) f = Printf.sprintf "%.*f" decimals f
let fb b = if b then "yes" else "no"
let fpct f = Printf.sprintf "%.2f%%" (100. *. f)

let looks_numeric s =
  s <> ""
  && String.for_all (fun c -> (c >= '0' && c <= '9') || c = '.' || c = '-' || c = '%' || c = '+') s

let print ~header rows =
  let all = header :: rows in
  let cols = List.fold_left (fun acc r -> max acc (List.length r)) 0 all in
  let width c =
    List.fold_left
      (fun acc row -> match List.nth_opt row c with Some s -> max acc (String.length s) | None -> acc)
      0 all
  in
  let widths = List.init cols width in
  let render row =
    let cells =
      List.mapi
        (fun c w ->
          let s = Option.value ~default:"" (List.nth_opt row c) in
          if looks_numeric s then Printf.sprintf "%*s" w s else Printf.sprintf "%-*s" w s)
        widths
    in
    print_string ("  " ^ String.concat "  " cells ^ "\n")
  in
  render header;
  let rule = List.map (fun w -> String.make w '-') widths in
  render rule;
  List.iter render rows;
  flush stdout
