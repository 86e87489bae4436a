type t =
  | Revoked
  | Access_denied
  | Domain_failed of string
  | Domain_unavailable

let to_string = function
  | Revoked -> "remote reference revoked"
  | Access_denied -> "access denied by domain policy"
  | Domain_failed msg -> Printf.sprintf "domain failed: %s" msg
  | Domain_unavailable -> "target domain unavailable"
