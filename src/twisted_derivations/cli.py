"""Command-line front end.

Groups, endomorphisms, and elements arrive as small spec strings
(builtin:s3, inner:[2,3,0], images:{...}, file:path), every computation
is dispatched to the library, and reports leave as deterministic JSON
on stdout with a machine-readable error object on stderr for failures.

Exit codes: 0 success, 2 malformed input, 3 out-of-scope request,
4 a mathematical witness refuted the requested construction.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import json
import os
import re
import sys
from itertools import chain, islice

from . import __version__
from .derivations import (
    DerivationTable,
    Potential,
    check_leibniz,
    derivation_space,
    inner_space,
    is_inner,
    is_quasi_inner,
    leibniz_pairs,
    quasi_inner_from_potential,
)
from .errors import (
    LibraryError,
    NotADerivation,
    NotSupportedForScope,
    SpecError,
    UnsupportedParameter,
)
from .groups import (
    DEFAULT_RADIUS,
    HeisenbergParams,
    builtin_group,
    identity_endomorphism,
    inner_endomorphism,
    make_endomorphism,
    make_finite_group,
)
from .groupoid import GroupoidView, SubgroupDescription, center_to_json, to_dot
from .structure import (
    heisenberg_central_family,
    structure_report,
    verify_decomposition,
)

_ALIASES = {
    "trivial": ("cyclic", 1),
    "c2": ("cyclic", 2),
    "c3": ("cyclic", 3),
    "c4": ("cyclic", 4),
    "c6": ("cyclic", 6),
    "s3": ("symmetric", 3),
    "s4": ("symmetric", 4),
    "d4": ("dihedral", 4),
    "q8": ("quaternion8", None),
    "quaternion8": ("quaternion8", None),
    "heisenberg_Z": ("heisenberg_Z", None),
    "heisenberg_z": ("heisenberg_Z", None),
}

_PARAM_FAMILIES = {"cyclic", "dihedral", "symmetric", "heisenberg_mod"}


def _load_json_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SpecError(f"cannot read {path}: {exc.strerror}", path=path)
    except json.JSONDecodeError as exc:
        raise SpecError(f"{path} is not valid JSON: {exc}", path=path)


def parse_group_spec(spec: str):
    if spec.startswith("builtin:"):
        name = spec[len("builtin:"):]
        if name in _ALIASES:
            family, param = _ALIASES[name]
            return builtin_group(family, param)
        for sep in (":", "_"):
            family, _, tail = name.rpartition(sep)
            if family in _PARAM_FAMILIES and re.fullmatch(r"\d+", tail):
                return builtin_group(family, int(tail))
        raise UnsupportedParameter(f"unknown builtin group {name!r}", spec=spec)
    if spec.startswith("file:"):
        obj = _load_json_file(spec[len("file:"):])
        if isinstance(obj, dict) and "cayley" in obj:
            return make_finite_group(obj["cayley"], name=obj.get("name"),
                                     labels=obj.get("labels"))
        if isinstance(obj, dict) and "family" in obj:
            return builtin_group(obj["family"], obj.get("param"))
        raise SpecError("a group file needs a 'cayley' table or a 'family'",
                        path=spec[len("file:"):])
    raise SpecError(
        f"group spec {spec!r} must start with 'builtin:' or 'file:'")


def parse_element(group, token: str):
    token = token.strip()
    if token.startswith("["):
        try:
            value = json.loads(token)
        except json.JSONDecodeError:
            raise SpecError(f"cannot parse element {token!r}")
        return group.element_from_json(value)
    if re.fullmatch(r"-?\d+", token):
        return group.element_from_json(int(token))
    return group.element_from_json(token)


def _split_top(text: str, sep: str, maxsplit: int = -1):
    """Split on sep at bracket depth zero, so [a,b,c] survives; at most
    maxsplit times when maxsplit is not negative."""
    parts = []
    depth = start = 0
    for i, ch in enumerate(text):
        if ch in "[{":
            depth += 1
        elif ch in "]}":
            depth -= 1
        elif ch == sep and depth == 0 and len(parts) != maxsplit:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


def parse_endo_spec(group, spec: str):
    if spec == "id":
        return identity_endomorphism(group)
    if spec.startswith("inner:"):
        return inner_endomorphism(group, parse_element(group, spec[len("inner:"):]))
    if spec.startswith("images:"):
        body = spec[len("images:"):].strip()
        if not (body.startswith("{") and body.endswith("}")):
            raise SpecError(f"images spec needs braces, got {spec!r}")
        images = {}
        for item in filter(None, map(str.strip, _split_top(body[1:-1], ","))):
            key, *value = _split_top(item, ":", 1)
            if not value:
                raise SpecError(f"images entry {item!r} is not key:element")
            images[key.strip()] = value[0].strip()
        return _endo_from_images(group, images)
    if spec.startswith("file:"):
        obj = _load_json_file(spec[len("file:"):])
        if isinstance(obj, dict) and "inner" in obj:
            return inner_endomorphism(group, group.element_from_json(obj["inner"]))
        if isinstance(obj, dict) and "images" in obj:
            return _endo_from_images(group, obj["images"])
        raise SpecError("an endomorphism file needs 'inner' or 'images'")
    raise SpecError(
        f"endomorphism spec {spec!r} is not id, inner:..., images:{{...}}, "
        "or file:...")


def _endo_from_images(group, images: dict):
    if not isinstance(images, dict):
        raise SpecError(f"'images' must map generator labels to elements, "
                        f"got {images!r}")
    generators = {group.label(g): g for g in group.generators}
    resolved = {}
    for key, value in images.items():
        if key not in generators:
            raise SpecError(
                f"{key!r} is not a generator of {group.name}; "
                f"generators are {sorted(generators)}")
        if isinstance(value, str):
            resolved[generators[key]] = parse_element(group, value)
        else:
            resolved[generators[key]] = group.element_from_json(value)
    return make_endomorphism(group, resolved)


# -- report plumbing ---------------------------------------------------------


def _job(args, group, radius):
    """The job header: the G, sigma, tau and scope the report was computed
    from, then the command's own options that have a value, in the order
    its parser declares them. central's pair is built from --params.
    Built after the handler, which refused any bad input.
    """
    job = {
        "command": args.command,
        "group": args.group,
        "group_name": group.name,
        "sigma": args.sigma,
        "tau": args.tau,
        "radius": radius,
    }
    if args.command == "derivations":
        job["action"] = args.action
        if args.action == "central":
            sigma_a, sigma_b, sigma_c, tau_c = _central_params(args)
            job.update(sigma=f"inner:[{sigma_a},{sigma_b},{sigma_c}]",
                       tau=f"inner:[{sigma_a},{sigma_b},{tau_c}]", radius=None)
    for dest in args.reads:
        if getattr(args, dest) is not None:
            job[dest] = getattr(args, dest)
    return job


# chunks of the JSON encoder joined per write: a report is never held as
# one string, so the memory it takes beyond its dict is one batch
_BATCH = 2048


def _emit(args, text: str):
    args.destination.write(text)


def _render(args, report: dict):
    """Write the report as it is encoded, one _BATCH of the JSON encoder's
    chunks per write: indented JSON, or in text format one line per
    top-level key, "key: " and the value's compact JSON."""
    if args.format == "text":
        encoder = json.JSONEncoder(default=str)
        chunks = chain.from_iterable(
            chain((f"{key}: ",), encoder.iterencode(value), ("\n",))
            for key, value in report.items())
    else:
        chunks = chain(json.JSONEncoder(indent=2, default=str).iterencode(report),
                       ("\n",))
    while batch := list(islice(chunks, _BATCH)):
        _emit(args, "".join(batch))


def _write_report(args, job, body):
    """Stream the report to --output, opened once, or to stdout.

    An OSError from opening, writing or flushing is a SpecError (exit 2);
    the destination may then hold part of the report. So is a closed
    stdout, which the interpreter leaves as None.
    """
    try:
        if not args.output and sys.stdout is None:
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        with (open(args.output, "w", encoding="utf-8") if args.output else
              contextlib.nullcontext(sys.stdout)) as args.destination:
            if args.command == "groupoid-export":
                _emit(args, f"// tool_version: {__version__}\n"
                            f"// job: {json.dumps(job, sort_keys=True)}\n")
                _emit(args, body)
            else:
                _render(args, {"tool_version": __version__, "job": job, **body})
            args.destination.flush()
    except OSError as exc:
        if (not args.output and sys.stdout is not None
                and sys.stdout is sys.__stdout__):
            # the interpreter flushes stdout again at exit; pointed at the
            # null device, that flush cannot fail and print a second error
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        name = args.output or "<stdout>"
        raise SpecError(f"cannot write {name}: {exc.strerror}", path=name)


def _loop_witness(group, result):
    witness = result["loop_witness"]
    return (None if witness is None else
            [group.element_to_json(witness[0]), group.element_to_json(witness[1])])


def _class_body(view, cls):
    group = view.group
    return {
        "representative": group.element_to_json(cls.representative),
        "size": len(cls.elements),
        "truncated": cls.truncated,
        "elements": [group.element_to_json(g) for g in cls.elements],
    }


# -- commands ----------------------------------------------------------------


def cmd_group_info(args, group, sigma, tau, radius):
    return structure_report(group, sigma, tau, radius=radius)


def cmd_classes(args, group, sigma, tau, radius):
    view = GroupoidView(group, sigma, tau, radius=radius)
    if args.element is not None:
        cls = view.conjugacy_class(parse_element(group, args.element))
        return _class_body(view, cls)
    classes = [view.conjugacy_class(component[0])
               for component in view.components()]
    return {
        "count": len(classes),
        "sizes": sorted(len(cls.elements) for cls in classes),
        "classes": [_class_body(view, cls) for cls in classes],
    }


def cmd_centralizers(args, group, sigma, tau, radius):
    view = GroupoidView(group, sigma, tau, radius=radius)

    def entry(u):
        z = view.centralizer(u)
        body = {"element": group.element_to_json(u)}
        if isinstance(z, SubgroupDescription):
            body["centralizer"] = z.to_json()
        else:
            body["order"] = len(z)
            body["elements"] = [group.element_to_json(w) for w in z]
        return body

    if args.element is not None:
        return entry(parse_element(group, args.element))
    return {"centralizers": [entry(component[0])
                             for component in view.components()]}


def cmd_center(args, group, sigma, tau, radius):
    view = GroupoidView(group, sigma, tau, radius=radius)
    center = view.center()
    body = {"center": center_to_json(group, center)}
    if not isinstance(center, SubgroupDescription):
        body["order"] = len(center)
    return body


def cmd_groupoid_export(args, group, sigma, tau, radius):
    view = GroupoidView(group, sigma, tau, radius=radius)
    return to_dot(view)


def cmd_dim(args, group, sigma, tau, radius):
    space = derivation_space(group, sigma, tau)
    inner = inner_space(group, sigma, tau)
    return {"dimension": space["dimension"],
            "inner_dimension": inner["dimension"]}


def cmd_basis(args, group, sigma, tau, radius):
    space = derivation_space(group, sigma, tau)
    return {"dimension": space["dimension"],
            "basis": [D.to_json() for D in space["basis"]]}


def cmd_check_inner(args, group, sigma, tau, radius):
    # is_inner solves on finite groups only: refuse before the file is
    # read and scanned, whatever it holds
    if group.kind != "finite":
        raise NotSupportedForScope("finite groups only")
    D = _validated_table(group, sigma, tau, args.derivation, radius)
    result = is_inner(D)
    witness = result["witness"]
    return {
        "is_inner": result["is_inner"],
        "witness": witness.to_json() if witness is not None else None,
        "kernel_dimension": result["kernel_dimension"],
    }


def cmd_verify_decomposition(args, group, sigma, tau, radius):
    return verify_decomposition(group, sigma, tau)


def cmd_quasi_inner(args, group, sigma, tau, radius):
    scope = group.ball(radius)
    if args.potential:
        blob = _load_json_file(args.potential)
        if not isinstance(blob, dict) or "values" not in blob:
            raise SpecError(
                f"{args.potential} is not a potential file: "
                "expected a 'values' list", path=args.potential)
        P = Potential.from_json(group, blob)
        D = quasi_inner_from_potential(P, sigma, tau)
        result = is_quasi_inner(D, scope=scope)
        body = {"derivation": D.to_json(scope=scope)}
    else:
        D = _validated_table(group, sigma, tau, args.derivation, radius)
        result = is_quasi_inner(D, scope=scope)
        body = {}
    body["quasi_inner"] = result["quasi_inner"]
    body["loop_witness"] = _loop_witness(group, result)
    return body


def _validated_table(group, sigma, tau, path, radius):
    """Load a derivation file and refuse it unless Leibniz holds.

    Tables arrive claiming to be derivations; a violation is a
    mathematical refutation of that claim, reported with the witness
    pair rather than silently classified. On heisenberg_Z the table is
    read on the radius ball, where elements the file omits are zero.
    """
    obj = _load_json_file(path)
    if not isinstance(obj, dict) or "D" not in obj:
        raise SpecError(f"{path} is not a derivation file: expected a 'D' table",
                        path=path)
    D = DerivationTable.from_json(group, sigma, tau, obj, radius=radius)
    leibniz = check_leibniz(D, leibniz_pairs(D, radius))
    if not leibniz["ok"]:
        g2, g1, _lhs, _rhs = leibniz["violations"][0]
        raise NotADerivation(
            f"{path} violates the Leibniz rule",
            witness=[group.label(g2), group.label(g1)])
    return D


def _central_params(args):
    """[sigma_a, sigma_b, sigma_c, tau_c] from --params."""
    if args.params is None:
        raise SpecError("central needs --params sigma_a,sigma_b,sigma_c,tau_c")
    pieces = args.params.split(",")
    if len(pieces) != 4:
        raise SpecError(f"--params needs four integers, got {args.params!r}")
    try:
        return [int(p) for p in pieces]
    except ValueError:
        raise SpecError(f"--params needs four integers, got {args.params!r}")


def cmd_central(args, group, sigma, tau, radius):
    if group.kind != "heisenberg_Z":
        raise UnsupportedParameter(
            "the central-derivation family is defined on heisenberg_Z",
            group=group.name)
    params = _central_params(args)
    D = heisenberg_central_family(HeisenbergParams(*params), args.mu, args.nu,
                                  args.r, group=group)
    pairs = leibniz_pairs(D, args.check_radius)
    leibniz = check_leibniz(D, pairs)
    quasi = is_quasi_inner(D, scope=pairs.ball)
    return {
        "params": params,
        "mu": args.mu,
        "nu": args.nu,
        "r": args.r,
        "check_radius": args.check_radius,
        "pairs_checked": len(pairs),
        "leibniz_ok": leibniz["ok"],
        "quasi_inner": quasi["quasi_inner"],
        "loop_witness": _loop_witness(group, quasi),
    }


# -- parser ------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Errors raise SpecError (exit 2). Options are never abbreviated:
    --r, unread outside central, would otherwise pass for --radius."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise SpecError(f"argument error: {message}")


def _int_at_least(low):
    """An argparse type: an integer no smaller than low.

    A ball of negative radius is empty, and a check over the radius-0
    ball sees only the identity, which carries no loop; such radii would
    report checks that prove nothing, so they are refused.
    """
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


def _common(formats=("json", "text"), radius=DEFAULT_RADIUS):
    """The options every command takes, as a parent parser whose actions
    its commands share rather than rebuild."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--group", required=True,
                   help="builtin:<name> or file:<path>")
    p.add_argument("--sigma", default="id",
                   help="id | inner:<element> | images:{...} | file:<path>")
    p.add_argument("--tau", default="id",
                   help="id | inner:<element> | images:{...} | file:<path>")
    p.add_argument("--radius", type=_int_at_least(0), default=radius,
                   help=f"truncation radius for heisenberg_Z (default {radius})")
    p.add_argument("--output", default=None,
                   help="write the report here instead of stdout")
    p.add_argument("--format", choices=list(formats), default=formats[0])
    return p


def _command(sub, common, name, help, *options, one_of=False):
    """The parser of one command or derivations action: the common options,
    then the (flag, add_argument keywords) pairs its handler reads, exactly
    one of them if one_of. Any other option is refused; the job header
    names these own options that have a value, in this order."""
    p = sub.add_parser(name, help=help, parents=[common])
    own = p.add_mutually_exclusive_group(required=True) if one_of else p
    p.set_defaults(reads=tuple(
        own.add_argument(flag, **keywords).dest for flag, keywords in options))


# built once per process, since parse_args leaves the parser as it was:
# its eleven command parsers take about as long to build as a small job
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="twisted-derivations",
                     description="exact (sigma,tau)-derivation computations")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    common = _common()
    _command(sub, common, "group-info", "structural summary of the pair")
    _command(sub, common, "classes", "twisted conjugacy classes",
             ("--element", dict(help="report only the class of this element")))
    _command(sub, common, "centralizers", "twisted centralizers",
             ("--element",
              dict(help="report only the centralizer of this element")))
    _command(sub, common, "center", "the twisted center")
    actions = sub.add_parser(
        "derivations", help="derivation-space computations").add_subparsers(
            dest="action", required=True)
    _command(actions, common, "dim", "dimensions of Der and Inn")
    _command(actions, common, "basis", "a basis of Der")
    _command(actions, common, "check-inner", "is a derivation file inner",
             ("--derivation",
              dict(required=True, help="derivation table JSON file")))
    _command(actions, common, "verify-decomposition",
             "Der = Inn, checked vector by vector")
    _command(actions, common, "quasi-inner",
             "quasi-innerness on the --radius ball",
             ("--potential", dict(help="potential JSON file")),
             ("--derivation", dict(help="derivation table JSON file")),
             one_of=True)
    _command(actions, common, "central",
             "the heisenberg_Z central family; --sigma, --tau and --radius "
             "are not read",
             ("--params", dict(help="sigma_a,sigma_b,sigma_c,tau_c")),
             ("--mu", dict(type=int, default=0)),
             ("--nu", dict(type=int, default=0)),
             ("--r", dict(type=int, default=0)),
             ("--check-radius", dict(type=_int_at_least(1), default=3)))
    # a truncated picture of an infinite groupoid is easy to misread, so
    # Group.ball refuses a heisenberg_Z export without an explicit radius
    _command(sub, _common(formats=("dot",), radius=None), "groupoid-export",
             "render the groupoid")
    return parser


_ACTIONS = {
    "dim": cmd_dim,
    "basis": cmd_basis,
    "check-inner": cmd_check_inner,
    "verify-decomposition": cmd_verify_decomposition,
    "quasi-inner": cmd_quasi_inner,
    "central": cmd_central,
}

# one handler per command; derivations hands on to its action's handler
_HANDLERS = {
    "group-info": cmd_group_info,
    "classes": cmd_classes,
    "centralizers": cmd_centralizers,
    "center": cmd_center,
    "derivations": lambda args, *rest: _ACTIONS[args.action](args, *rest),
    "groupoid-export": cmd_groupoid_export,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        group = parse_group_spec(args.group)
        central = vars(args).get("action") == "central"  # pair from --params
        sigma = None if central else parse_endo_spec(group, args.sigma)
        tau = None if central else parse_endo_spec(group, args.tau)
        radius = None if group.kind == "finite" else args.radius
        body = _HANDLERS[args.command](args, group, sigma, tau, radius)
        _write_report(args, _job(args, group, radius), body)
        return 0
    except LibraryError as exc:
        sys.stderr.write(json.dumps(exc.to_json(), default=str) + "\n")
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
