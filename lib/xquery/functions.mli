(** The built-in function library: the [fn:] functions used by Demaq rules
    plus the [qs:] queue access functions (dispatched to the
    {!Context.host} hooks).

    An unprefixed function name defaults to the [fn:] namespace, following
    XQuery's default function namespace convention.

    Documented deviations from XQuery 1.0 F&O:
    - [fn:current-dateTime] returns the engine's virtual-clock tick as an
      integer rather than an [xs:dateTime];
    - [fn:tokenize], [fn:replace] and [fn:matches] treat their pattern as a
      literal substring, not a regular expression;
    - [fn:string] of a sequence of several items is the string value of
      the first, not a type error. *)

val call : Context.env -> string -> Value.t list -> Value.t
(** [call env name args] applies a built-in function.
    @raise Context.Eval_error for unknown names, wrong arity, or argument
    type errors. *)
