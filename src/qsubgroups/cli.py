"""Command-line front end.

Subcommands
    validate-phi    check a twisting-map parameter matrix
    kernel          coefficient matrix and character kernel for (I+, I-)
    datum           validate a datum, report orders and dimensions
    enumerate       list classification triples with dimensions
    paper-examples  run the built-in golden fixtures
    twist-table     export the dual 2-cocycle exponent table

Problems are described either with inline flags (--type C --rank 3
--ell 11 --family-c3 1,2,0 --iplus 2 --iminus 1 --sigma-gen 2,3,2 ...)
or with --spec FILE pointing at a JSON document carrying the same keys.
Reports are line-delimited JSON with sorted keys, so identical inputs
produce byte-identical output.  The one exception is twist-table: after
its JSON header line, each row of the table is plain text, the exponents
over z2 as space-separated residues.  Dimensions are rendered in factored form
{"cofactor": c, "base": ell, "exponent": e} because plain integers like
ell^21 overflow naive consumers.

Exit status: 0 success, 1 validation failure, 2 guard or resource
failure, 3 parse failure.  The enumeration guard cap can be set with the
QSUBGROUPS_ENUM_CAP environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from ._record import record
from .cocycle import TableCapExceeded, twist_J
from .datum import (
    DualHom,
    FiniteAbelianGroup,
    TorusEmbedding,
    TwistedSubgroupDatum,
    analyze_datum,
    dim_H,
    enumerate_triples,
    factor_out,
    obstruction_check,
    predicates,
    validate_datum,
)
from .exact import IntMatrix
from .lie import CartanDatum, InvalidCartanMatrix, bilinear_form, cartan_matrix
from .torus import (
    EnumerationGuard,
    SigmaGenerator,
    TorusSubgroup,
    Triple,
    analyze_triple,
    canonical_row_form,
    n_phi_from_sigma,
    s_phi_matrix,
    sigma_order_identity,
    t_hat_I_complement,
    validate_triple,
)
from .twist import TwistMap, apply_phi, build_twist, c3_parameter_matrix

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_GUARD = 2
EXIT_PARSE = 3


class ParseFailure(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ParseFailure(message)

    def _get_formatter(self):
        # shutil.get_terminal_size's columns: argparse imports shutil (zlib, bz2, lzma) for them
        try:
            columns = int(os.environ.get("COLUMNS", ""))
        except ValueError:
            columns = 0
        if columns <= 0:
            try:
                columns = os.get_terminal_size(sys.__stdout__.fileno()).columns or 80
            except (AttributeError, ValueError, OSError):  # no terminal
                columns = 80
        return self.formatter_class(prog=self.prog, width=columns - 2)


def _emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record, sort_keys=True) + "\n")


def _factored(value: int, base: int) -> dict:
    cofactor, exponent = factor_out(value, base)
    return {"cofactor": cofactor, "base": base, "exponent": exponent}


def _parse_int_list(text: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    try:
        return [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError as exc:
        raise ParseFailure(f"expected integers, got {text!r}") from exc


def _strict_int(name: str, value) -> int:
    """A flag or spec value that must be an int: JSON true, 5.0 and "5"
    are refused, not coerced."""
    if type(value) is not int:
        raise ParseFailure(f"{name} must be an integer, got {value!r}")
    return value


def _strict_ints(name: str, values) -> list[int]:
    """A spec list of ints, or comma-separated text of them."""
    if isinstance(values, str):
        return _parse_int_list(values)
    if not isinstance(values, list):
        raise ParseFailure(f"{name} must be a list of integers, got {values!r}")
    return [_strict_int(name, x) for x in values]


def _strict_rows(name: str, rows) -> list[list[int]]:
    """A spec list of integer lists."""
    if not isinstance(rows, list):
        raise ParseFailure(f"{name} must be a list of integer lists, got {rows!r}")
    return [_strict_ints(name, row) for row in rows]


def _strict_str(name: str, value) -> str:
    if not isinstance(value, str):
        raise ParseFailure(f"{name} must be a string, got {value!r}")
    return value


def _strict_object(name: str, value) -> dict:
    """A spec object; absent is empty."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ParseFailure(f"{name} must be a JSON object, got {value!r}")
    return value


def _parsed(prefix: str, build, *args):
    """build(*args), a ValueError or TypeError (InvalidCartanMatrix and
    json.JSONDecodeError among them) raised as a parse failure."""
    try:
        return build(*args)
    except (ValueError, TypeError) as exc:
        raise ParseFailure(f"{prefix}{exc}") from exc


def _json_payload(flag: str, value):
    """A --cartan or --y value: text is decoded as JSON, a spec value kept."""
    if isinstance(value, str):
        return _parsed(f"bad {flag} payload: ", json.loads, value)
    return value


# key: (flags, reader, help) of each problem value, given by its flag or
# else by the spec file's key; messages name the first flag
_PROBLEM_KEYS = {
    "type": (("--type", "-t"), _strict_str, "Lie type A..G"),
    "rank": (("--rank",), _strict_int, "rank n"),
    "cartan": (("--cartan",), _json_payload, "JSON rows of an explicit Cartan matrix"),
    "ell": (("--ell",), _strict_int, "odd level ell >= 3"),
    "y": (("--y",), _json_payload, "JSON rows of the parameter matrix Y"),
    "family_c3": (("--family-c3",), _strict_ints,
                  "a,b,c parameters of the built-in type C rank 3 family"),
    "iplus": (("--iplus",), _strict_ints, "comma-separated simple indices of I+"),
    "iminus": (("--iminus",), _strict_ints, "comma-separated simple indices of I-"),
}


@record
class ProblemSpec:
    """Normalized problem description shared by the subcommands."""

    cd: CartanDatum
    ell: int
    Y: object  # IntMatrix or rational rows; validated by build_twist
    iplus: tuple[int, ...]
    iminus: tuple[int, ...]
    sigma_gens: tuple[tuple[int, ...], ...]
    sigma_symbols: tuple[SigmaGenerator, ...]
    datum: dict | None
    inputs: dict  # normalized echo for reports


def _load_spec(args) -> ProblemSpec:
    doc: dict = {}
    if getattr(args, "spec", None):
        try:
            with open(args.spec, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ParseFailure(f"cannot read spec file: {exc}") from exc
        if not isinstance(doc, dict):
            raise ParseFailure("spec file must hold a JSON object")

    def pick(key):  # the flag's value, else the spec's
        value = getattr(args, key, None)
        return doc.get(key) if value is None else value

    def read(key, absent=None):  # pick(key) through its reader
        flags, reader, _ = _PROBLEM_KEYS[key]
        return absent if pick(key) is None else reader(flags[0], pick(key))

    cartan_rows = read("cartan")
    ell = read("ell")
    if ell is None:
        raise ParseFailure("--ell is required")
    if ell < 3 or ell % 2 == 0:
        raise ParseFailure("--ell must be odd and >= 3")

    if cartan_rows is not None:
        cd = _parsed("bad Cartan matrix: ",
                     lambda: CartanDatum.from_matrix(IntMatrix(cartan_rows)))
        matrix = f"the {cd.rank}x{cd.rank} --cartan matrix"
        if (rank := read("rank", cd.rank)) != cd.rank:
            raise ParseFailure(f"--rank {rank} disagrees with {matrix}")
        lie_type = read("type", "X")  # X, the label from_matrix gives, fits any matrix
        why = f"--type {lie_type} disagrees with {matrix}"
        if lie_type != "X" and _parsed(why + ": ", cartan_matrix, lie_type, cd.rank).A != cd.A:
            raise ParseFailure(why)
    else:
        if pick("type") is None or pick("rank") is None:
            raise ParseFailure("need --type and --rank (or an explicit Cartan matrix)")
        rank, lie_type = read("rank"), read("type")
        cd = _parsed("", cartan_matrix, lie_type, rank)
    if cd.has_triple_bond and ell % 3 == 0:
        raise ParseFailure("--ell must be coprime to 3 in type G")

    family = read("family_c3")
    if family is not None:
        if len(family) != 3:
            raise ParseFailure("--family-c3 needs exactly a,b,c")
        if cd.A != cartan_matrix("C", 3).A:  # the matrix decides, not the label
            raise ParseFailure("--family-c3 only applies to type C rank 3")
        ymat = _parsed("bad family parameters: ", c3_parameter_matrix, *family)
    elif pick("y") is not None:  # decoded only here: --family-c3 wins over a bad --y
        ymat = _parsed("bad parameter matrix: ", IntMatrix, read("y"))
    else:
        ymat = IntMatrix.zeros(cd.rank, cd.rank)

    iplus, iminus = sorted(read("iplus", [])), sorted(read("iminus", []))
    for flag, ids in (("--iplus", iplus), ("--iminus", iminus)):
        if len(set(ids)) < len(ids):
            raise ParseFailure(f"{flag} repeats a simple index: {ids}")
    sigma = _strict_object("sigma", doc.get("sigma"))
    sigma_gens = _strict_rows("sigma generators", sigma.get("generators", []))
    sigma_gens += [_parse_int_list(g) for g in (getattr(args, "sigma_gen", None) or [])]
    sigma_symbols: list[SigmaGenerator] = []
    raw_syms = sigma.get("symbols", [])
    if not isinstance(raw_syms, list):
        raise ParseFailure(f"sigma symbols must be a list, got {raw_syms!r}")
    raw_syms = raw_syms + [s.split(":") for s in (getattr(args, "sigma_sym", None) or [])]
    for sym in raw_syms:
        if not isinstance(sym, list) or len(sym) != 2:
            raise ParseFailure(f"sigma symbol needs kind:value, got {sym!r}")
        kind, value = sym[0], sym[1]
        if kind in ("kbar", "ktilde", "tau"):
            try:
                index = _strict_int("sigma symbol index",
                                    int(value) if isinstance(value, str) else value)
            except ValueError as exc:
                raise ParseFailure(f"bad sigma symbol index: {value!r}") from exc
            if not 1 <= index <= cd.rank:
                raise ParseFailure(
                    f"sigma symbol index {index} out of range 1..{cd.rank}"
                )
            sigma_symbols.append(SigmaGenerator(kind, index=index))
        elif kind == "vector":
            sigma_symbols.append(SigmaGenerator.fixed(_strict_ints("sigma vector", value)))
        else:
            raise ParseFailure(f"unknown sigma symbol kind {kind!r}")

    inputs = {
        "type": cd.lie_type,
        "rank": cd.rank,
        "cartan": cd.A.to_lists(),
        "ell": ell,
        "y": ymat.to_lists() if isinstance(ymat, IntMatrix)
        else [[str(x) for x in row] for row in ymat],
        "iplus": iplus,
        "iminus": iminus,
    }
    # echoed in the same shape a spec file uses, so reports re-parse
    sigma_echo = {
        "generators": sigma_gens,
        "symbols": [[s.kind, s.index if s.index is not None else list(s.vector)]
                    for s in sigma_symbols],
    }
    if sigma_gens or sigma_symbols:
        inputs["sigma"] = {key: value for key, value in sigma_echo.items() if value}
    return ProblemSpec(
        cd=cd,
        ell=ell,
        Y=ymat,
        iplus=tuple(iplus),
        iminus=tuple(iminus),
        sigma_gens=tuple(map(tuple, sigma_gens)),
        sigma_symbols=tuple(sigma_symbols),
        datum=doc.get("datum"),
        inputs=inputs,
    )


def _phi_record(spec: ProblemSpec, result) -> dict:
    """The validate-phi report of a twist build."""
    return {"command": "validate-phi", "inputs": spec.inputs, "results": {
        "valid": result.ok, "violations": [
            {"condition": v.condition, "indices": list(v.indices) if v.indices else None,
             "detail": v.detail} for v in result.violations]}}


def _load_twist(args) -> tuple[ProblemSpec, TwistMap]:
    """The problem and its twist; an invalid twist prints its report and exits 1."""
    spec = _load_spec(args)
    result = build_twist(spec.cd, spec.Y)
    if result.twist is None:
        _emit(_phi_record(spec, result))
        raise SystemExit(EXIT_INVALID)
    return spec, result.twist


def _build_triple(tw, spec: ProblemSpec) -> Triple:
    return Triple.make(tw, spec.ell, spec.iplus, spec.iminus, sigma_gens=spec.sigma_gens,
                       recipe=spec.sigma_symbols or None)


# ---------------------------------------------------------------------------
# subcommands

def cmd_validate_phi(args) -> int:
    spec = _load_spec(args)
    result = build_twist(spec.cd, spec.Y)
    record = _phi_record(spec, result)
    record["citations"] = [
        "D X antisymmetric",
        "(phi(omega_i), omega_j)/2 integral",
        "A + 2X invertible",
    ]
    if result.ok:
        record["results"]["x"] = result.twist.X.to_lists()
    _emit(record)
    return EXIT_OK if result.ok else EXIT_INVALID


def cmd_kernel(args) -> int:
    spec, tw = _load_twist(args)
    s = s_phi_matrix(tw, spec.ell, spec.iplus, spec.iminus)
    kernel = t_hat_I_complement(tw, spec.ell, spec.iplus, spec.iminus)
    triple = _build_triple(tw, spec) if spec.sigma_gens or spec.sigma_symbols else None
    record = {
        "command": "kernel",
        "inputs": spec.inputs,
        "results": {
            "matrix": s.to_lists(),
            "matrix_canonical_rows": canonical_row_form(s, spec.ell).to_lists(),
            "kernel_generators": [list(g) for g in kernel.generators],
            "kernel_order": kernel.order,
        },
        "citations": [
            "rows are the exponents of (1 -/+ phi)(alpha_i) for i in I+-",
            # pinned CLI output kept byte-identical; kernel is a Hermite form
            "kernel solved over Z/ell via Smith normal form",
        ],
    }
    _emit(record)  # after every input check, so a refused input prints nothing
    if triple is not None:
        report = validate_triple(tw, spec.ell, triple)
        if not report.ok:
            _emit({"command": "kernel", "results": {
                "triple_valid": False, "missing": [list(m) for m in report.missing]}})
            return EXIT_INVALID
        analysis = analyze_triple(tw, spec.ell, triple)
        _emit({"command": "kernel", "results": {
            "triple_valid": True,
            "sigma_order": analysis.sigma_order,
            "omega_order": analysis.omega_order,
            "n_generators": [list(g) for g in analysis.N.generators],
            "n_order": analysis.n_order,
            "order_identity": analysis.order_identity,
        }, "citations": ["|Sigma| * |N| = ell^n", "|Omega| = |Sigma| / |T_I|"]})
    return EXIT_OK


def _parse_datum(tw, spec: ProblemSpec) -> TwistedSubgroupDatum:
    payload = _strict_object("datum", spec.datum)
    n = tw.rank
    n_gens = payload.get("n_generators")
    recipe = None
    if n_gens is None:
        if spec.sigma_gens or spec.sigma_symbols:
            triple = _build_triple(tw, spec)
            nsub = n_phi_from_sigma(tw, spec.ell, triple)
            recipe = triple.recipe
        else:
            nsub = TorusSubgroup.trivial(spec.ell, n)
    else:
        nsub = TorusSubgroup.from_generators(
            spec.ell, n, _strict_rows("datum n_generators", n_gens)
        )
    gamma = _strict_object("datum gamma", payload.get("gamma"))
    embedding = TorusEmbedding.trivial(n)  # TwistedSubgroupDatum.make's default
    if gamma:
        group = FiniteAbelianGroup(
            tuple(_strict_ints("gamma factors", gamma.get("factors", [])))
        )
        embedding = TorusEmbedding.make(
            group, _strict_rows("gamma embedding", gamma.get("embedding")), n
        )
    delta_rows = payload.get("delta")
    delta = None  # TwistedSubgroupDatum.make then sets the trivial delta
    if delta_rows is not None:
        delta = DualHom.make(nsub, embedding.group, _strict_rows("datum delta", delta_rows))
    return TwistedSubgroupDatum.make(spec.iplus, spec.iminus, nsub, embedding=embedding,
                                     delta=delta, sigma_recipe=recipe)


def cmd_datum(args) -> int:
    spec, tw = _load_twist(args)
    d = _parse_datum(tw, spec)
    report = validate_datum(tw, spec.ell, d)
    record = {
        "command": "datum",
        "inputs": spec.inputs,
        "results": {
            "valid": report.ok,
            "violations": [
                {"condition": v.condition, "detail": v.detail}
                for v in report.violations
            ],
        },
    }
    if not report.ok:
        _emit(record)
        return EXIT_INVALID
    analysis = analyze_datum(tw, spec.ell, d)  # memoised by validate_datum above
    h, preds = analysis.dim_h, predicates(tw, spec.ell, d)
    ob = preds.obstruction
    record["results"].update(
        {
            "n_generators": [list(g) for g in d.N.generators],
            "n_order": d.N.order,
            "sigma_order": h.sigma_order,
            "dim_h": _factored(h.value, spec.ell),
            "dim_h_simple_convention": _factored(h.value_simple_convention, spec.ell),
            # _parse_datum always embeds Gamma, so its order is a finite int
            "gamma_order": d.gamma_order,
            "dim_a": _factored(analysis.dim_a, spec.ell),
            # the four flags (the last field is the obstruction); keys sort on output
            "predicates": {k: getattr(preds, k) for k in preds._fields[:-1]},
            "untwisted_comparison": {  # the four order fields and the ratio
                **{k: getattr(ob, k) for k in ob._fields[:4]},
                "dim_ratio": str(ob.dim_ratio),
            },
        }
    )
    record["citations"] = [
        "|Sigma| = ell^n / |N|",
        "dim H = |Sigma| * ell^(#supported positive roots)",
        "dim H (simple-index convention) = |Sigma| * ell^(|I+| + |I-|)",
        "dim A = |Gamma| * dim H",
    ]
    _emit(record)
    return EXIT_OK


def cmd_enumerate(args) -> int:
    if args.max_results is not None and args.max_results < 0:
        raise ParseFailure(f"--max-results must be >= 0, got {args.max_results}")
    spec, tw = _load_twist(args)
    fixed = (spec.iplus, spec.iminus) if spec.iplus or spec.iminus else None
    try:
        records = enumerate_triples(
            tw, spec.ell, max_results=args.max_results, fixed_pair=fixed
        )
    except EnumerationGuard as exc:
        _emit({"command": "enumerate", "error": str(exc)})
        return EXIT_GUARD
    for rec in records:
        _emit({"command": "enumerate", "triple": {
            "iplus": list(rec.iplus),
            "iminus": list(rec.iminus),
            "n_generators": [list(g) for g in rec.N.generators],
            "n_order": rec.N.order,
            "sigma_order": rec.dims.sigma_order,
            "dim_h": _factored(rec.dims.value, spec.ell),
        }})
    _emit({"command": "enumerate", "total": len(records)})
    return EXIT_OK


def cmd_twist_table(args) -> int:
    spec, tw = _load_twist(args)
    cocycle = twist_J(tw, spec.ell)
    try:
        lines = list(cocycle.table_lines(cap=args.cap))
    except TableCapExceeded as exc:
        _emit({"command": "twist-table", "error": str(exc)})
        return EXIT_GUARD
    _emit({"command": "twist-table", "inputs": spec.inputs,
           "results": {"rows": len(lines), "entries_mod": spec.ell},
           "citations": ["exponent rule (phi(l_z1), l_z2)/2 mod ell"]})
    for line in lines:
        sys.stdout.write(line + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# golden fixtures

def _paper_fixtures(a: int, b: int, c: int, ell: int):
    """The worked type-C rank-3 computations used as golden checks."""
    cd = cartan_matrix("C", 3)
    checks = []

    def check(name, expected, actual):
        checks.append((name, expected, actual, expected == actual))

    def pairings(left):  # (left(i), alpha_j) for i, j = 1, 2, 3
        return [[int(bilinear_form(left(i), cd.simple_root(j), cd)) for j in (1, 2, 3)]
                for i in (1, 2, 3)]

    check("cartan_matrix_c3", [[2, -1, 0], [-1, 2, -1], [0, -2, 2]], cd.A.to_lists())
    check("symmetrizers_c3", [2, 2, 1], list(cd.d))
    check(
        "weight_root_pairing",
        [[cd.d[i - 1] if i == j else 0 for j in (1, 2, 3)] for i in (1, 2, 3)],
        pairings(cd.fundamental_weight),
    )
    check(
        "root_root_pairing",
        [[cd.d[i - 1] * cd.A[i - 1, j - 1] for j in (1, 2, 3)] for i in (1, 2, 3)],
        pairings(cd.simple_root),
    )
    result = build_twist(cd, c3_parameter_matrix(a, b, c))
    check("twist_valid", True, result.ok)
    if not result.ok:
        return checks
    tw = result.twist
    for i, expected in ((1, [4, 8, 10]), (2, [-2, -2, -2]), (3, [-2, -2, -2])):
        image = apply_phi(tw, cd.simple_root(i))
        check(f"phi_alpha_{i}", expected, [int(x) for x in image.coords])

    iplus, iminus = (2,), (1,)
    s = s_phi_matrix(tw, ell, iplus, iminus)
    check("s_matrix_rows", sorted([[5, 8, 10], [2, 3, 2]]), sorted(s.to_lists()))
    check("s_matrix_canonical", [[1, 0, 8], [0, 1, 10]], canonical_row_form(s, ell).to_lists())
    kernel = t_hat_I_complement(tw, ell, iplus, iminus)
    check("kernel_a_order", 11, kernel.order)
    check("kernel_a_contains_311", True, kernel.contains((3, 1, 1)))
    check(
        "kernel_a_equals_span_311",
        TorusSubgroup.from_generators(ell, 3, [(3, 1, 1)]).lattice.to_lists(),
        kernel.lattice.to_lists(),
    )

    recipe_a = (
        SigmaGenerator.kbar(2),
        SigmaGenerator.ktilde(1),
        SigmaGenerator.tau(3),
        SigmaGenerator.tau(2),
    )
    triple_a = Triple.make(tw, ell, iplus, iminus, recipe=recipe_a)
    check("sigma_a_is_full_torus", ell**3, triple_a.sigma.order)
    n_a = n_phi_from_sigma(tw, ell, triple_a)
    check("n_a_trivial", 1, n_a.order)
    check("order_identity_a", (ell**3, 1, True), sigma_order_identity(tw, ell, triple_a))

    recipe_b = (SigmaGenerator.ktilde(1), SigmaGenerator.kbar(2))
    triple_b = Triple.make(tw, ell, (2,), (), recipe=recipe_b)
    kernel_b = t_hat_I_complement(tw, ell, (2,), ())
    check("kernel_b_order", 121, kernel_b.order)
    check(
        "kernel_b_contains",
        [True, True],
        [kernel_b.contains((1, 0, 10)), kernel_b.contains((0, 1, 4))],
    )
    n_b = n_phi_from_sigma(tw, ell, triple_b)
    check("n_b_order", 11, n_b.order)
    check("n_b_contains_311", True, n_b.contains((3, 1, 1)))
    check("sigma_b_order", 121, triple_b.sigma.order)
    check("order_identity_b", (121, 11, True), sigma_order_identity(tw, ell, triple_b))

    datum_b = TwistedSubgroupDatum.make((2,), (), n_b)
    check("datum_b_valid", True, validate_datum(tw, ell, datum_b).ok)
    h_b = dim_H(tw, ell, (2,), (), n_b)
    check("datum_b_dimension", (1, 3), h_b.factored())

    z2 = FiniteAbelianGroup((2,))
    semisimple_datum = TwistedSubgroupDatum.make(
        (), (), TorusSubgroup.trivial(ell, 3),
        embedding=TorusEmbedding.make(z2, [[1], [0], [0]], 3),
    )
    check("semisimple_predicate", True, predicates(tw, ell, semisimple_datum).semisimple)

    ob = obstruction_check(tw, ell, iplus, iminus, recipe_a)
    check("untwisted_comparison_orders", (121, 11),
          (ob.sigma_order_untwisted, ob.n_order_untwisted))
    check("obstruction_flag", True, ob.obstructed)
    check("obstruction_dim_ratio", "11", str(ob.dim_ratio))

    h_full = dim_H(tw, ell, (1, 2, 3), (1, 2, 3), TorusSubgroup.trivial(ell, 3))
    check("dim_full_kernel", (1, 21), h_full.factored())
    return checks


def cmd_paper_examples(args) -> int:
    family = _parse_int_list(args.family_c3)
    if len(family) != 3:
        raise ParseFailure("--family-c3 needs exactly a,b,c")
    if args.ell != 11:
        _emit(
            {
                "command": "paper-examples",
                "error": f"fixtures are pinned to level 11, got {args.ell}",
            }
        )
        return EXIT_GUARD
    checks = _paper_fixtures(*family, args.ell)
    for name, expected, actual, ok in checks:
        _emit(
            {
                "command": "paper-examples",
                "fixture": name,
                "pass": ok,
                "expected": expected,
                "computed": actual,
            }
        )
    failures = sum(not ok for *_, ok in checks)
    _emit(
        {
            "command": "paper-examples",
            "total": len(checks),
            "failed": failures,
        }
    )
    return EXIT_OK if failures == 0 else EXIT_INVALID


# ---------------------------------------------------------------------------
# argument wiring

def _add_problem_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--spec", help="path to a JSON problem description")
    for key, (flags, reader, text) in _PROBLEM_KEYS.items():
        # argparse already reads --rank and --ell as int
        p.add_argument(*flags, dest=key, type=int if reader is _strict_int else None,
                       help=text)
    for flag, text in (
            ("--sigma-gen", "a Sigma generator as comma-separated exponents (repeatable)"),
            ("--sigma-sym", "a symbolic Sigma generator kind:index, kind in kbar/ktilde/tau")):
        p.add_argument(flag, action="append", help=text)


_PROBLEM_COMMANDS = (
    ("validate-phi", "validate a twisting map", cmd_validate_phi, {}),
    ("kernel", "character kernel for (I+, I-)", cmd_kernel, {}),
    ("datum", "validate and measure a subgroup datum", cmd_datum, {}),
    ("enumerate", "enumerate classification triples", cmd_enumerate,
     {"--max-results": None}),
    ("twist-table", "export the 2-cocycle exponent table", cmd_twist_table,
     {"--cap": "table size guard"}),
)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qsubgroups",
        description="exact quantum-subgroup data for twisted quantum groups "
        "at odd roots of unity",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, text, func, extra in _PROBLEM_COMMANDS:
        p = sub.add_parser(name, help=text)
        _add_problem_flags(p)
        for flag, flag_help in extra.items():
            p.add_argument(flag, type=int, default=None, help=flag_help)
        p.set_defaults(func=func)

    p = sub.add_parser("paper-examples", help="run the golden fixtures")
    p.add_argument("--ell", type=int, default=11)
    p.add_argument("--family-c3", default="1,2,0")
    p.set_defaults(func=cmd_paper_examples)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ParseFailure as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return EXIT_PARSE
    except (EnumerationGuard, TableCapExceeded) as exc:
        sys.stderr.write(f"guard: {exc}\n")
        return EXIT_GUARD
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_PARSE
    except (ValueError, InvalidCartanMatrix) as exc:
        sys.stderr.write(f"invalid input: {exc}\n")
        return EXIT_INVALID


if __name__ == "__main__":
    raise SystemExit(main())
