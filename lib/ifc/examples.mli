(** The paper's §4 programs, encoded in Mir.

    Line numbers inside the buffer programs match the paper's listing
    (lines 9–17), so a verifier diagnostic at "line 16" is literally
    the paper's "ERROR: leaks secret data" and a linearity error at
    line 17 is rustc's rejection of the aliasing exploit. *)

(** {2 The Buffer listing (paper lines 1–17)} *)

val buffer_leak_safe : Ast.program
(** Lines 9–16 in the Safe dialect: append non-secret then secret data,
    print the buffer. Ownership-clean; static IFC must reject line 16. *)

val buffer_exploit_safe : Ast.program
(** Lines 9–17: additionally prints [nonsec] after it was moved into
    the buffer (line 14). In Rust/Safe this is an {e ownership} error
    at line 17 — the exploit does not compile. *)

val buffer_exploit_aliased : Ast.program
(** The same exploit in the conventional (Aliased) dialect, with the
    direct leak of line 16 removed: line 14 makes the buffer {e alias}
    [nonsec]; line 15 appends secret data through the buffer; line 17
    prints [nonsec]. Dynamically this really discloses the secret;
    statically, only an alias-aware analysis can see it. *)

val buffer_benign_safe : Ast.program
(** The legitimate program: same appends, output to a trusted channel
    bounded [secret]. Verifies under every sound strategy, with zero
    copies (moves only). *)

val buffer_benign_sectype : Ast.program
(** The same benign program as a security-type system forces it to be
    written: the buffer is {e declared} secret up front, so moving the
    public vector into it is ill-typed until {!Sectype.repair} turns
    the move into an allocate-and-copy. *)

(** {2 The secure multi-client data store} *)

val secure_store : ?bug:bool -> ?requests_per_client:int -> clients:int -> unit -> Ast.program
(** A store holding one buffer per client, where client [j] is allowed
    to read the data of clients [k >= j] (lower index = more
    privileged). Each client has an output channel bounded by exactly
    the categories it may see; serving is done through per-client
    functions so the program exercises calls (and scales for E7 via
    [clients] × [requests_per_client]).

    With [bug:true] (default [false]), the §4 seeded fault is injected:
    the access check for one request is inverted, serving a privileged
    client's data to an unprivileged channel. A sound verifier must
    find exactly that line; {!bug_line} reports it. *)

val bug_line : clients:int -> int
(** The line the seeded bug occupies (for test assertions). *)

(** {1 For tests}

    model: the terminal channel and client categories the IFC tests build
    their own programs and expectations from. *)

val terminal : Ast.channel
(** The untrusted terminal of [println!]: bound [public]. *)

val client_category : int -> string
