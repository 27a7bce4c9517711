(** SPICE-flavored netlist parsing.

    One element per line; [*] or [;] starts a comment; blank lines are
    ignored. Element cards (case-insensitive designators):

    {v
    R<name> <node+> <node-> <value>
    C<name> <node+> <node-> <value>
    L<name> <node+> <node-> <value>
    E<name> <out+> <out-> <in+> <in-> <gain>
    v}

    Values accept engineering suffixes [f p n u m k meg g t] (SPICE
    convention: [m] = milli, [meg] = mega) and plain scientific
    notation. Nodes are nonnegative integers with [0] = ground. *)

(** [netlist ?file src] parses a full netlist source. [file] (default
    ["<netlist>"]) only labels diagnostics.
    @raise Robust.Pllscope_error.Error with a
    [Robust.Pllscope_error.Parse] payload carrying the 1-based line,
    0-based column and message on malformed input; semantic errors over
    the whole netlist (from [Netlist.create]) report line 0. Pair the
    payload with {!Robust.Pllscope_error.parse_snippet} to render a
    caret under the offending token. *)
val netlist : ?file:string -> string -> Netlist.t

(** [value str] parses a single engineering-notation value
    (e.g. ["4.7k"], ["100n"], ["2meg"], ["1e-9"]).
    @raise Failure on malformed input. *)
val value : string -> float
[@@lint.allow "test-only-export" "test seam: the engineering-value grammar, tested apart from netlists"]
