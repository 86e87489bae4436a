type violation =
  | Use_after_move of string
  | Move_while_borrowed of { label : string; shared : int; mut : bool }
  | Borrow_conflict of { label : string; requested_mut : bool; shared : int; mut : bool }
  | Use_after_drop of string
  | Upgrade_failed of string

exception Ownership_violation of violation

let violation_to_string = function
  | Use_after_move label -> Printf.sprintf "use of moved value `%s'" label
  | Move_while_borrowed { label; shared; mut } ->
    Printf.sprintf "cannot move `%s' while borrowed (%d shared%s)" label shared
      (if mut then ", 1 mutable" else "")
  | Borrow_conflict { label; requested_mut; shared; mut } ->
    Printf.sprintf "cannot borrow `%s' as %s (%d shared%s live)" label
      (if requested_mut then "mutable" else "shared")
      shared
      (if mut then ", 1 mutable" else "")
  | Use_after_drop label -> Printf.sprintf "use of dropped handle `%s'" label
  | Upgrade_failed label -> Printf.sprintf "weak handle `%s' is dangling" label

let raise_violation v = raise (Ownership_violation v)

let () =
  Printexc.register_printer (function
    | Ownership_violation v -> Some ("Ownership_violation: " ^ violation_to_string v)
    | _ -> None)
