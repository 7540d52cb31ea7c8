"""Information-protocol model: declarations, parsing, printing, and recursive
schema expansion.

Protocols are declarative: no explicit control flow is written down. Each
message schema adorns its parameters `in` (the sender must already know a
binding), `out` (the emission binds a value), and `key` (bindings with the
same key values belong to the same enactment). Ordering falls out of those
information-causality constraints.

File grammar (`//` comments run to end of line, several protocols may share
one file):

    protocol  := NAME "{" "roles" names ["private" names]
                 "parameters" params ["private" params]
                 (schema | reference)* "}"
    schema    := ROLE "->" ROLE ":" NAME "[" param ("," param)* "]"
    param     := ("in" | "out") NAME ["key"]
    reference := NAME "(" arg ("," arg)* ")"
    arg       := ROLE | param
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import AbstractSet, Iterable, Mapping, Union

from .errors import WellFormednessError
from .lexer import MAX_DEPTH, TokenStream

IN = "in"
OUT = "out"


@dataclass(frozen=True)
class ParameterDecl:
    """One adorned parameter in a schema, protocol, or reference argument list."""

    name: str
    adornment: str
    key: bool = False

    def __post_init__(self):
        if self.adornment not in (IN, OUT):
            raise WellFormednessError(f"parameter {self.name!r}: bad adornment {self.adornment!r}")
        if not self.name:
            raise WellFormednessError("parameter name must be nonempty")


@dataclass(frozen=True)
class MessageSchema:
    """An atomic two-role protocol: one sender, one receiver, adorned parameters."""

    name: str
    sender: str
    receiver: str
    params: tuple[ParameterDecl, ...]

    @property
    def param_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.params)

    @property
    def ins(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.params if p.adornment == IN)

    @property
    def outs(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.params if p.adornment == OUT)

    @property
    def keys(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.params if p.key)

    def validate(self) -> None:
        if self.sender == self.receiver:
            raise WellFormednessError(f"schema {self.name!r}: sender equals receiver ({self.sender!r})")
        _check_unique([p.name for p in self.params], f"schema {self.name!r} parameter")
        if not self.keys:
            raise WellFormednessError(f"schema {self.name!r}: at least one key parameter required")


@dataclass(frozen=True)
class ProtocolReference:
    """A positional reference to another protocol: role arguments then parameter arguments."""

    name: str
    roles: tuple[str, ...]
    params: tuple[ParameterDecl, ...]


Reference = Union[MessageSchema, ProtocolReference]


@dataclass(frozen=True)
class Protocol:
    name: str
    roles: tuple[str, ...]
    params: tuple[ParameterDecl, ...]
    private_roles: tuple[str, ...] = ()
    private_params: tuple[ParameterDecl, ...] = ()
    references: tuple[Reference, ...] = ()

    @property
    def keys(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.params if p.key)

    @property
    def param_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.params)

    @property
    def out_params(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.params if p.adornment == OUT)

    @property
    def schemas(self) -> tuple[MessageSchema, ...]:
        return tuple(r for r in self.references if isinstance(r, MessageSchema))

    @property
    def subprotocols(self) -> tuple[ProtocolReference, ...]:
        return tuple(r for r in self.references if isinstance(r, ProtocolReference))

    def all_roles(self) -> tuple[str, ...]:
        return self.roles + self.private_roles

    def all_params(self) -> tuple[ParameterDecl, ...]:
        return self.params + self.private_params

    def validate(self) -> None:
        _check_unique(self.all_roles(), f"protocol {self.name!r} role")
        _check_unique([p.name for p in self.all_params()], f"protocol {self.name!r} parameter")
        declared_roles = set(self.all_roles())
        declared_params = {p.name for p in self.all_params()}
        keys = set(self.keys) | {p.name for p in self.private_params if p.key}
        _check_unique([r.name for r in self.references], f"protocol {self.name!r} reference")
        for ref in self.references:
            if isinstance(ref, MessageSchema):
                ref.validate()
                what, roles = "schema", (ref.sender, ref.receiver)
            else:
                what, roles = "reference", ref.roles
            where = f"protocol {self.name!r}: {what} {ref.name!r}"
            undeclared = [f"role {role!r}" for role in roles if role not in declared_roles]
            undeclared += [f"parameter {p.name!r}" for p in ref.params if p.name not in declared_params]
            if undeclared:
                raise WellFormednessError(f"{where} uses undeclared {undeclared[0]}")
            # Protocol keys are inherited: a schema's keys are exactly its
            # parameters that are keys of the protocol.
            expected = {p.name for p in ref.params if p.name in keys}
            if what == "schema" and set(ref.keys) != expected:
                raise WellFormednessError(
                    f"{where} keys {sorted(ref.keys)} must equal its parameters intersected "
                    f"with the protocol keys {sorted(expected)}"
                )


def default_value(schema: str, param: str) -> str:
    """Deterministic synthetic binding for an ``out`` parameter; distinct
    schemas binding the same parameter produce distinct values."""
    return f"{schema}.{param}"


@dataclass(frozen=True)
class EmissionPlan:
    """What the emission rules read of one schema (see
    ``enactment.emission_candidates``), worked out once per universe."""

    schema: MessageSchema
    keys: tuple[str, ...]  # sorted, as on every instance
    outs: tuple[str, ...]  # rule (b): none may be known at the key binding
    in_keys: tuple[str, ...]  # rule (a): each must be known as the key value
    names: tuple[str, ...]  # every parameter, sorted, as in every instance's bindings
    # The values each of ``names`` takes: None for a key parameter (the key
    # value), () for an ``in`` non-key one (its values known at the key
    # binding), else the one ``default_value`` of an ``out`` non-key one.
    fills: tuple[tuple[str, ...] | None, ...]

    @classmethod
    def of(cls, schema: MessageSchema) -> "EmissionPlan":
        params = sorted(schema.params, key=lambda p: p.name)
        return cls(
            schema=schema,
            keys=tuple(p.name for p in params if p.key),
            outs=schema.outs,
            in_keys=tuple(p.name for p in schema.params if p.key and p.adornment == IN),
            names=tuple(p.name for p in params),
            fills=tuple(
                None if p.key else () if p.adornment == IN else (default_value(schema.name, p.name),)
                for p in params
            ),
        )


@dataclass(frozen=True)
class Uod:
    """Universe of discourse: every role and message schema a protocol can reach."""

    roles: tuple[str, ...]
    schemas: tuple[MessageSchema, ...]

    @cached_property
    def by_name(self) -> Mapping[str, MessageSchema]:
        return {s.name: s for s in self.schemas}

    @cached_property
    def emission_plans(self) -> Mapping[str, tuple[EmissionPlan, ...]]:
        """Each sending role's schemas, in universe order, as the emission rules read them."""
        plans: dict[str, list[EmissionPlan]] = {}
        for s in self.schemas:
            plans.setdefault(s.sender, []).append(EmissionPlan.of(s))
        return {role: tuple(found) for role, found in plans.items()}

    def schema(self, name: str) -> MessageSchema:
        try:
            return self.by_name[name]
        except KeyError:
            raise WellFormednessError(f"no message schema named {name!r}") from None

    def validate(self) -> None:
        _check_unique([s.name for s in self.schemas], "schema")
        declared = set(self.roles)
        for s in self.schemas:
            if s.sender not in declared or s.receiver not in declared:
                raise WellFormednessError(f"schema {s.name!r} uses a role outside the universe")


def _check_unique(names: Iterable[str], what: str) -> None:
    seen = set()
    for name in names:
        if name in seen:
            raise WellFormednessError(f"duplicate {what} name {name!r}")
        seen.add(name)


# ---------------------------------------------------------------------------
# Parsing


def parse_protocols(source: str) -> dict[str, Protocol]:
    """Parse every protocol in ``source``, in declaration order."""
    stream = TokenStream(source)
    out: dict[str, Protocol] = {}
    while not stream.at("eof"):
        p = _parse_protocol(stream)
        if p.name in out:
            raise WellFormednessError(f"duplicate protocol name {p.name!r}")
        out[p.name] = p
    return out


def parse_protocol(source: str) -> Protocol:
    """Parse the one protocol in ``source``, with nothing after it, and check
    well-formedness."""
    stream = TokenStream(source)
    p = _parse_protocol(stream)
    stream.expect("eof")
    return p


def _parse_protocol(stream: TokenStream) -> Protocol:
    name = stream.expect("name").text
    stream.expect("symbol", "{")
    stream.expect("name", "roles")
    roles = _parse_names(stream)
    private_roles: tuple[str, ...] = ()
    if stream.accept("name", "private"):
        private_roles = _parse_names(stream)
    stream.expect("name", "parameters")
    params = _parse_params(stream)
    private_params: tuple[ParameterDecl, ...] = ()
    if stream.accept("name", "private"):
        private_params = _parse_params(stream)
    # Parameters the protocol declares key are key in each of its schemas.
    keys = {p.name for p in params + private_params if p.key}
    references: list[Reference] = []
    while not stream.at("symbol", "}"):
        references.append(_parse_reference(stream, keys))
    stream.expect("symbol", "}")
    protocol = Protocol(
        name=name,
        roles=roles,
        params=params,
        private_roles=private_roles,
        private_params=private_params,
        references=tuple(references),
    )
    protocol.validate()
    return protocol


def _parse_names(stream: TokenStream) -> tuple[str, ...]:
    names = [stream.expect("name").text]
    while stream.accept("symbol", ","):
        names.append(stream.expect("name").text)
    return tuple(names)


def _parse_param(stream: TokenStream, keys: AbstractSet[str] = frozenset()) -> ParameterDecl:
    tok = stream.expect("name")
    if tok.text not in (IN, OUT):
        raise stream.error(f"expected 'in' or 'out', found {tok.text!r}")
    name = stream.expect("name").text
    key = stream.accept("name", "key") is not None or name in keys
    return ParameterDecl(name, tok.text, key)


def _parse_params(stream: TokenStream, keys: AbstractSet[str] = frozenset()) -> tuple[ParameterDecl, ...]:
    params = [_parse_param(stream, keys)]
    while stream.accept("symbol", ","):
        params.append(_parse_param(stream, keys))
    return tuple(params)


def _parse_reference(stream: TokenStream, keys: AbstractSet[str]) -> Reference:
    first = stream.expect("name")
    if stream.at("symbol", "->"):
        stream.next()
        receiver = stream.expect("name").text
        stream.expect("symbol", ":")
        name = stream.expect("name").text
        stream.expect("symbol", "[")
        params = _parse_params(stream, keys)
        stream.expect("symbol", "]")
        return MessageSchema(name=name, sender=first.text, receiver=receiver, params=params)
    if stream.at("symbol", "("):
        stream.next()
        roles: list[str] = []
        params: list[ParameterDecl] = []
        while True:
            if stream.peek().text in (IN, OUT):
                params.append(_parse_param(stream))
            else:
                if params:
                    raise stream.error("role arguments must precede parameter arguments")
                roles.append(stream.expect("name").text)
            if not stream.accept("symbol", ","):
                break
        stream.expect("symbol", ")")
        return ProtocolReference(name=first.text, roles=tuple(roles), params=tuple(params))
    raise stream.error("expected a message schema ('->') or a protocol reference ('(')")


# ---------------------------------------------------------------------------
# Printing


def print_param(p: ParameterDecl) -> str:
    return f"{p.adornment} {p.name} key" if p.key else f"{p.adornment} {p.name}"


def print_schema(s: MessageSchema, protocol_keys: Iterable[str] = ()) -> str:
    inherited = set(protocol_keys)
    parts = []
    for p in s.params:
        # Inherited key markers are left implicit, matching the input style.
        shown = replace(p, key=p.key and p.name not in inherited)
        parts.append(print_param(shown))
    return f"{s.sender} -> {s.receiver}: {s.name}[{', '.join(parts)}]"


def print_reference(ref: ProtocolReference) -> str:
    args = list(ref.roles) + [print_param(p) for p in ref.params]
    return f"{ref.name}({', '.join(args)})"


def print_protocol(p: Protocol) -> str:
    lines = [f"{p.name} {{"]
    lines.append(f"  roles {', '.join(p.roles)}")
    if p.private_roles:
        lines.append(f"  private {', '.join(p.private_roles)}")
    lines.append(f"  parameters {', '.join(print_param(d) for d in p.params)}")
    if p.private_params:
        lines.append(f"  private {', '.join(print_param(d) for d in p.private_params)}")
    keys = p.keys
    for ref in p.references:
        if isinstance(ref, MessageSchema):
            lines.append(f"  {print_schema(ref, keys)}")
        else:
            lines.append(f"  {print_reference(ref)}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def print_protocols(protocols: Iterable[Protocol]) -> str:
    return "\n".join(print_protocol(p) for p in protocols)


def canonicalize(p: Protocol) -> Protocol:
    """Normalize ordering for structural comparison: sorted roles, sorted
    references, and parameters grouped keys/in/out with names sorted."""

    def param_order(decl: ParameterDecl):
        group = 0 if decl.key else (1 if decl.adornment == IN else 2)
        return (group, decl.name)

    def norm_ref(ref: Reference) -> Reference:
        if isinstance(ref, MessageSchema):
            return replace(ref, params=tuple(sorted(ref.params, key=param_order)))
        return ref

    return Protocol(
        name=p.name,
        roles=tuple(sorted(p.roles)),
        params=tuple(sorted(p.params, key=param_order)),
        private_roles=tuple(sorted(p.private_roles)),
        private_params=tuple(sorted(p.private_params, key=param_order)),
        references=tuple(sorted((norm_ref(r) for r in p.references), key=lambda r: r.name)),
    )


# ---------------------------------------------------------------------------
# Universe of discourse


def uod(p: Protocol, registry: Mapping[str, Protocol] | None = None) -> Uod:
    """All roles and message schemas reachable from ``p`` through references,
    with role and parameter names substituted per each reference's arguments.
    References nest at most ``MAX_DEPTH`` deep."""
    reg = dict(registry or {})
    reg.setdefault(p.name, p)
    roles: list[str] = []
    schemas: dict[str, MessageSchema] = {}

    def add_role(role: str) -> None:
        if role not in roles:
            roles.append(role)

    def expand(proto: Protocol, role_map: dict[str, str], param_map: dict[str, str], stack: tuple[str, ...]):
        for role in proto.all_roles():
            add_role(role_map.get(role, role))
        for ref in proto.references:
            if isinstance(ref, MessageSchema):
                schema = _substitute_schema(ref, role_map, param_map)
                existing = schemas.get(schema.name)
                if existing is None:
                    schemas[schema.name] = schema
                elif existing != schema:
                    raise WellFormednessError(
                        f"conflicting definitions for schema {schema.name!r} in the universe of {p.name!r}"
                    )
            else:
                if ref.name in stack:
                    raise WellFormednessError(" -> ".join(stack + (ref.name,)))
                if len(stack) > MAX_DEPTH:
                    raise WellFormednessError(
                        f"references nested deeper than {MAX_DEPTH} levels: {' -> '.join(stack + (ref.name,))}"
                    )
                target = reg.get(ref.name)
                if target is None:
                    raise WellFormednessError(f"protocol {ref.name!r} not found in registry")
                inner_roles = [role_map.get(r, r) for r in ref.roles]
                inner_params = [param_map.get(d.name, d.name) for d in ref.params]
                if len(inner_roles) != len(target.roles):
                    raise WellFormednessError(
                        f"reference {ref.name!r}: {len(inner_roles)} role arguments for "
                        f"{len(target.roles)} declared roles"
                    )
                if len(inner_params) != len(target.params):
                    raise WellFormednessError(
                        f"reference {ref.name!r}: {len(inner_params)} parameter arguments for "
                        f"{len(target.params)} declared parameters"
                    )
                expand(
                    target,
                    dict(zip(target.roles, inner_roles)),
                    dict(zip((d.name for d in target.params), inner_params)),
                    stack + (ref.name,),
                )

    expand(p, {}, {}, (p.name,))
    result = Uod(roles=tuple(roles), schemas=tuple(schemas.values()))
    result.validate()
    return result


def _substitute_schema(s: MessageSchema, role_map: dict[str, str], param_map: dict[str, str]) -> MessageSchema:
    params = tuple(replace(d, name=param_map.get(d.name, d.name)) for d in s.params)
    return MessageSchema(
        name=s.name,
        sender=role_map.get(s.sender, s.sender),
        receiver=role_map.get(s.receiver, s.receiver),
        params=params,
    )
