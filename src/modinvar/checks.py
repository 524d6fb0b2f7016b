"""Named verification checks: the vocabulary shared by the CLI `verify`
subcommand and scenario files.

Every check is `check(params)` and runs through `run_check`, the one
place that writes its report, sets its budgets and times it (`millis`,
from `time.perf_counter`).  A check passes by returning its notes, a
string or None, and fails by raising `ClaimRefuted` with its witness as
the message, as anything it calls may (an enumerated count against a
claimed order, an `InvarianceError` of a family, a generator that breaks
its form); a `BudgetExceeded` raised inside it (an enumeration cap, a
monomial budget, an exhaustive-search limit) makes the report "skipped"
with its message as the note.  Claims are certified where they are
stated, so no check restates them; every other exception propagates.  A
check that delegates to a routine with a report of its own, naming other
params or another check (`identity`, `hilbert`, `degree_product`, a
failing `transfer_factorization`), returns that report as it is.
"""

from __future__ import annotations

import functools
import random
import time

import numpy as np

# invariant_dimension is unused here; the benchmark's tracer self-test binds it
from modinvar.analysis import (HilbertClaim, VerificationReport,
                               degree_product_check, hilbert_check,
                               identity_suite, invariant_dimension,
                               principal_transfer_check, transfer,
                               transfer_factorization_check,
                               transfer_image_basis, u4_gluing)
from modinvar.gfq import build_field
from modinvar.gluing import (BimoduleBasis, diagonal_glue, full_hom_module,
                             glue, scalar_line_module, singular_form_group,
                             subfield_hom_module, thin_glue_regular)
from modinvar.groups import (CHUNK_ENTRIES, RUN_BUDGETS, BudgetExceeded,
                             ClaimRefuted, FormSpec, MatrixGroup,
                             _digit_matmul, _keys, _matmul_mod,
                             _sorted_unique, element_orders, field_from_order,
                             format_matrix, fp_dtype, gl_group, index_matmul,
                             o3_sylow_generators, o4_plus_sylow_generators,
                             p_k_subgroup, parabolic_g_k, parse_matrix,
                             run_budgets, sp_group, stabilizer_of_polynomial,
                             stabilizer_sp, trivial_group, unipotent_upper,
                             usp_group)
from modinvar.invariants import (FamilyMember, GeneratorFamily, dickson_in,
                                 family, orbit_product, parabolic_glue,
                                 parabolic_gl_group, psi_substitute,
                                 span_basis, subspace_product, xi)
from modinvar.mvpoly import (VariableSpace, compatibility_failures,
                             gluing_space, parse_polynomial, symplectic_space)

# The constructor of each group kind from its params and GF(q); the
# constructor states the claimed order.
GROUP_KINDS = {
    "gl": lambda p, F: gl_group(p["n"], F),
    "u": lambda p, F: unipotent_upper(p["n"], F),
    "sp": lambda p, F: sp_group(p["m"], F),
    "usp": lambda p, F: usp_group(p["m"], F),
    "pk": lambda p, F: p_k_subgroup(p["m"], p["k"], F),
    "gk": lambda p, F: parabolic_g_k(p["m"], p["k"], F),
    "spstab": lambda p, F: stabilizer_sp(p["m"], p["k"], F),
    "o3ex": lambda p, F: MatrixGroup(F, 3, o3_sylow_generators(F),
                                     name=f"O3-sylow(F{F.q})",
                                     claimed_order=F.q),
    "o4ex": lambda p, F: MatrixGroup(F, 4, o4_plus_sylow_generators(F),
                                     name=f"O4+-sylow(F{F.q})",
                                     claimed_order=F.q ** 2),
}


def build_group(kind: str, params: dict) -> MatrixGroup:
    if kind not in GROUP_KINDS:
        raise ValueError(f"unknown group kind {kind!r}; known: "
                         f"{sorted(GROUP_KINDS)}")
    return GROUP_KINDS[kind](params, field_from_order(params["q"]))


def check_group_order(params) -> str | None:
    """The constructor's claimed order matches an explicit pin, and
    enumeration certifies it."""
    G = build_group(params["kind"], params)
    pinned = params.get("order")
    if pinned is not None and pinned != G.claimed_order:
        raise ClaimRefuted(f"formula order {G.claimed_order} != pinned "
                           f"order {pinned}")
    G.enumerate()


def check_glued_order(params) -> str | None:
    """|realized| = |G1| * |M| * |G2| for a described gluing: the realized
    group claims that product, and enumerating G1, G2 and the realized group
    certifies each claim."""
    gluing = build_gluing(params)
    expected = params.get("order")
    R = gluing.enumerate()
    gluing.G1.enumerate()
    gluing.G2.enumerate()
    if expected is not None and R.order() != expected:
        raise ClaimRefuted(f"realized {R.order()} != pinned {expected}")


def _module_from_file(field, m, n, path):
    """Bimodule basis from a text file: one `parse_matrix` text per line;
    blank lines and lines starting with '#' are skipped."""
    with open(path) as handle:
        lines = [line.strip() for line in handle]
    mats = [parse_matrix(field, line) for line in lines
            if line and not line.startswith("#")]
    return BimoduleBasis(field, m, n, mats)


def build_gluing(params):
    """Gluing described by tokens: kind (hom | diag | thin | singular),
    factor tokens, and a module token.  Factors with the same token and
    dimension are one group object, so it is closed at most once."""
    kind = params.get("kind", "hom")
    if kind == "thin":
        p, r = params["p"], params["r"]
        return thin_glue_regular(p, r, build_field(p, r))
    q = params["q"]
    field = field_from_order(q)
    if kind == "singular":
        z = 0
        gram = ((z, z, z), (z, z, 1), (z, field.neg(1), z))
        return singular_form_group(FormSpec("alternating", field, gram=gram))
    g1 = params.get("g1", "trivial")
    g2 = params.get("g2", "trivial")
    module = params.get("module", "full")
    m = params.get("m", 1)
    n = params.get("n", 1)

    @functools.cache
    def factor(token, dim):
        if token == "trivial":
            return trivial_group(field, dim)
        if token == "u":
            return unipotent_upper(dim, field)
        if token == "gl":
            return gl_group(dim, field)
        if token == "pf":
            return parabolic_gl_group(params["partition"], field)
        raise ValueError(f"unknown factor token {token!r}")

    if module == "parabolic":
        partition = tuple(params["partition"])
        return parabolic_glue(partition, factor(g1, sum(partition)),
                              factor(g2, sum(partition)))
    if module == "full":
        M = full_hom_module(m, n, field)
    elif module == "subfield":
        M = subfield_hom_module(m, n, params["q_sub"], field)
    elif module == "scalar":
        M = scalar_line_module(n, field)
    elif module == "file":
        M = _module_from_file(field, m, n, params["module_file"])
    else:
        raise ValueError(f"unknown module token {module!r}")
    if kind == "diag":
        return diagonal_glue(factor(g1, n).enumerate(), M)
    return glue(factor(g1, m), factor(g2, n), M,
                flavor="subfield" if module == "subfield" else "generic")


def check_stabilizer_order(params) -> str | None:
    """Order of the stabilizer of a named polynomial inside an enumerated
    general linear group."""
    q = params["q"]
    field = field_from_order(q)
    which = params["polynomial"]
    if which == "xi1":
        m = params.get("m", 1)
        space = symplectic_space(field, m)
        f = xi(m, field, 1)
        G = gl_group(2 * m, field)
    elif which == "o3_quadric":
        space = VariableSpace(field, ["x1", "x2", "x3"])
        f = parse_polynomial(space, "x2^2 - x1*x3")
        G = gl_group(3, field)
    else:
        raise ValueError(f"unknown polynomial token {which!r}")
    S = stabilizer_of_polynomial(G.enumerate(), f)
    expected = params["order"]
    if S.order() != expected:
        raise ClaimRefuted(f"stabilizer order {S.order()}, expected "
                           f"{expected}")


def check_hilbert(params) -> VerificationReport:
    G = build_group(params["group"]["kind"], params["group"])
    D = params.get("D", RUN_BUDGETS.get()["degree_bound"])
    claim = HilbertClaim(params["generators"], params.get("relations", []))
    return hilbert_check(claim, G, D)


def check_degree_product(params) -> VerificationReport:
    fam = family(params["family"], **params.get("params", {}))
    drop = params.get("drop")
    if drop is not None:
        members = [m for i, m in enumerate(fam.members) if i != drop]
        fam = GeneratorFamily(fam.name + "-perturbed", fam.params, members,
                              fam.group, fam.structure, fam.relation_degrees,
                              check=False)
    return degree_product_check(fam)


def check_family(params) -> str | None:
    """Construct a family; construction validates degrees and invariance."""
    fam = family(params["family"], **params.get("params", {}))
    return f"{len(fam.members)} members, degrees {fam.degrees}"


def _law_pairs(sizes, params, seed):
    """The pairs of triples `semidirect_law` checks, as (total, pair_ids).
    A triple is an id into G1 x M x G2 of the given sizes
    (`np.ravel_multi_index`); pair_ids(start, stop) gives pairs start to
    stop - 1 as an (N, 2) id array.  Exhaustive mode takes all pairs in
    order; sampled triple ids are uniform below |G1| |M| |G2|, which makes
    the three axes independent and uniform.  They are drawn in bulk from
    random.Random(seed): the top bit_length bits of 64-bit words from
    `randbytes`, ids past the range rejected, a round of words at a time:
    enough for the ids still missing at the rate that lands in range, and
    64 more."""
    triples = sizes[0] * sizes[1] * sizes[2]
    if params.get("mode", "sample") == "exhaustive":
        def pair_ids(start, stop):
            return np.stack(np.divmod(np.arange(start, stop), triples), axis=1)
        return triples ** 2, pair_ids
    rng = random.Random(params.get("seed", seed))
    total = params.get("samples", 10000)
    bits = triples.bit_length()
    drawn = np.zeros(0, dtype=np.int64)
    while len(drawn) < 2 * total:
        missing = 2 * total - len(drawn)
        words = np.frombuffer(rng.randbytes(
            8 * ((missing << bits) // triples + 64)), dtype="<u8") \
            >> np.uint64(64 - bits)
        drawn = np.append(drawn, words[words < triples].astype(np.int64))
    drawn = drawn[:2 * total].reshape(total, 2)
    return total, lambda start, stop: drawn[start:stop]


def check_semidirect_law(params) -> str | None:
    """Triple product law against block matrix multiplication.

    Two routes that share no arithmetic meet on each pair of triples
    (`_law_pairs`), a chunk of pairs at a time; a triple is named by its
    factor ids (a, k, b) into G1, M and G2.  The block product X Y of the
    two block matrices is formed over F_p as in `groups.index_matmul`: the
    digit rows of X times the F_p form of Y (`FieldSpec.expand`), whose
    product rows are the digits of the rows of X Y.  The rows of G1, the
    module elements and the rows of G2 are written as digit rows and
    expanded once each, and a chunk's block matrices of both kinds are
    assembled from them (`GluingGroup.blocks`).  The triple formula
    (g1 h1, g1 psi + phi h2, g2 h2) is formed from the factor matrices in
    the field's own digit-polynomial arithmetic (`groups._digit_matmul`),
    once for each distinct pair of factors the checked pairs use: a first
    pass over the chunks collects, for each of the four products, the codes
    x |Y| + y of its (left id, right id) pairs, one `_digit_matmul` call
    forms each product's table, and a second pass gathers each pair's
    formula from the tables (`searchsorted`) and compares it with its block
    product.  The first pair whose block matrices differ is reported, each
    triple as (g, psi, h) with g and h in `format_matrix` text."""
    gluing = build_gluing(params)
    G1 = gluing.G1.enumerate()
    G2 = gluing.G2.enumerate()
    factors = (G1.rows(), gluing.M.elements(), G2.rows())
    sizes = tuple(map(len, factors))
    total, pair_ids = _law_pairs(sizes, params, 0)
    field, m, n = gluing.field, gluing.m, gluing.n
    p, r = field.p, field.r
    step = max(1, CHUNK_ENTRIES // ((m + n) * r) ** 2)
    chunks = range(0, total, step)
    # the factor products of the formula, as (left, right) axes of
    # G1 x M x G2
    factor_pairs = ((0, 0), (0, 1), (1, 2), (2, 2))

    def triples(start):
        """The factor ids (a, k, b) of the left and the right triples of a
        chunk."""
        ids = pair_ids(start, min(total, start + step))
        return (np.unravel_index(ids[:, 0], sizes),
                np.unravel_index(ids[:, 1], sizes))

    def codes(left, right):
        return [left[x] * sizes[y] + right[y] for x, y in factor_pairs]

    used = [np.zeros(0, dtype=np.int64)] * len(factor_pairs)
    for start in chunks:
        used = [_sorted_unique(np.concatenate([u, c]))
                for u, c in zip(used, codes(*triples(start)))]
    digits = [field.digits(x) for x in factors]
    tables = [_digit_matmul(field, digits[x][u // sizes[y]],
                            digits[y][u % sizes[y]])
              for (x, y), u in zip(factor_pairs, used)]
    # the diagonal blocks as indices; the corner's two terms stay digits
    tables[0], tables[3] = field.indices(tables[0]), field.indices(tables[3])
    dtype = fp_dtype(field, m + n)
    rows = [d.reshape(*d.shape[:-2], d.shape[-2] * r).astype(dtype)
            for d in digits]
    expanded = [field.expand(x, dtype) for x in factors]
    for start in chunks:
        left, right = triples(start)
        product = _matmul_mod(
            gluing.blocks(*(x[i] for x, i in zip(rows, left))),
            gluing.blocks(*(x[i] for x, i in zip(expanded, right))), p)
        product = field.indices(
            product.reshape(len(product), m + n, m + n, r))
        g1h1, g1psi, phih2, g2h2 = (
            table[np.searchsorted(u, c)]
            for table, u, c in zip(tables, used, codes(left, right)))
        formula = gluing.blocks(g1h1, field.indices((g1psi + phih2) % p),
                                g2h2)
        bad = (formula != product).any(axis=(1, 2))
        if bad.any():
            i = np.argmax(bad)
            t1, t2 = (f"({format_matrix(field, factors[0][a[i]].tolist())}, "
                      f"{tuple(map(tuple, factors[1][k[i]].tolist()))}, "
                      f"{format_matrix(field, factors[2][b[i]].tolist())})"
                      for a, k, b in (left, right))
            raise ClaimRefuted(f"triple law fails for {t1} * {t2}")
    return f"{total} of {total} pairs checked"


def check_thin_glue(params) -> str | None:
    """Dimension p^r + 1, faithfulness, and a maximal element order of
    p^(r+1).  Faithfulness is the realized group's claimed order
    p^r * p^(p^r), which its enumeration certifies.

    One witness settles the maximal order.  w = [[c, c e_0], [0, 1]], the
    cyclic generator block times the first module block, has w^k =
    [[c^k, (c + ... + c^k) e_0], [0, 1]]; at k = p^r, c^k = I and the corner
    is the all-ones column, so w has order p^(r+1).  No element has a larger
    one: the realized group is a p-group (its certified order), so each
    element g has g^(p^j) = I for some j, and in characteristic p
    (g - I)^(p^j) = g^(p^j) - I = 0.  So g - I is nilpotent, (g - I)^n = 0,
    and g^(p^k) = I + (g - I)^(p^k) = I once p^k >= n: no order passes
    p^ceil(log_p n), which is p^(r+1) for n = p^r + 1.  Should the witness
    miss, the largest order over all elements (`element_orders`) decides,
    with the same report."""
    p, r = params["p"], params["r"]
    field = build_field(p, r)
    gluing = thin_glue_regular(p, r, field)
    R = gluing.enumerate()
    size = p ** r
    if R.n != size + 1:
        raise ClaimRefuted(f"dimension {R.n} != {size + 1}")
    c = gluing.G1.generator_rows[0]
    witness = gluing.blocks(c, index_matmul(field, c, gluing.M.mats[0]),
                            np.eye(1, dtype=np.int64))
    maxorder = element_orders(field, witness[None])[0]
    if maxorder != p ** (r + 1):
        maxorder = max(element_orders(field, R.rows()))
    if maxorder != p ** (r + 1):
        raise ClaimRefuted(f"maximal element order {maxorder} != "
                           f"{p ** (r + 1)}")


def check_transfer_example(params) -> str | None:
    """Image of the module transfer: divisibility by tau up to the degree
    bound and attainment of tau at its own degree."""
    p = params["p"]
    D = params.get("D", RUN_BUDGETS.get()["degree_bound"])
    gluing = u4_gluing(p)
    space = gluing_space(gluing.field, 2, 2)
    tau = dickson_in(space, ["x1", "x2"], 2) ** params.get("tau_power", 2)
    msub = gluing.m_subgroup()
    image = transfer_image_basis(msub, space, D, m_split=2)
    rep = principal_transfer_check(image, tau)
    if not rep.passed:
        raise ClaimRefuted(rep.witness)


def check_transfer_factorization(params) -> VerificationReport | str:
    """Tr over the glued group equals Tr over G1 x G2 composed with Tr over
    M, on random monomials, all of them in one
    `transfer_factorization_check`; a failure is its report, which names
    the failing monomial as the `f` param."""
    gluing = build_gluing(params)
    space = gluing_space(gluing.field, gluing.m, gluing.n)
    rng = random.Random(params.get("seed", 0))
    count = params.get("samples", 12)
    maxdeg = params.get("max_degree", 3)
    polys = [space.monomial(tuple(rng.randrange(maxdeg + 1)
                                  for _ in range(space.dim)))
             for _ in range(count)]
    rep = transfer_factorization_check(polys, gluing)
    if not rep.passed:
        rep.params.update(params)
        return rep
    return f"{count} monomials checked"


def check_parabolic_family(params) -> str | None:
    """Substituted generators of a parabolic gluing: invariance under every
    realized generator (`GeneratorFamily.validate`) and the degree-product
    count."""
    q = params["q"]
    partition = tuple(params.get("partition", (1, 1)))
    field = field_from_order(q)
    PF = parabolic_gl_group(partition, field)
    gluing = parabolic_glue(partition, PF, PF)
    n = sum(partition)
    space = gluing_space(field, n, n)
    fam_y = family("parabolic_gl", partition=partition, q=q).members
    lift = {name: space.variable(name) for name in fam_y[0].poly.space.names}
    to_x = {f"y{i}": space.variable(f"x{i}") for i in range(1, n + 1)}
    members = [(f"{mem.label}~", psi_substitute(mem.poly.substitute(lift),
                                                gluing)) for mem in fam_y]
    members += [(mem.label.replace("d_", "h_"), mem.poly.substitute(to_x))
                for mem in fam_y]
    fam = GeneratorFamily(
        f"parabolic_glue{partition}", {"partition": partition, "q": q},
        [FamilyMember(label, poly, poly.degree()) for label, poly in members],
        gluing.realized)
    degprod = fam.degree_product()
    order = gluing.enumerate().order()
    if degprod != order:
        raise ClaimRefuted(f"degree product {degprod} != glued order {order}")
    return f"degrees {fam.degrees}, order {order}"


def check_singular_form(params) -> str | None:
    """Alternating rank-2 form on a 3-space: the glued order
    |GL1| * q^2 * |Sp2|, certified by enumeration, and preservation of the
    form, certified on the generators by `singular_form_group`; the form is
    the one of `build_gluing`'s "singular" kind."""
    build_gluing({"kind": "singular", "q": params["q"]}).enumerate()


def check_orbit_additivity(params) -> str | None:
    """Orbit products over the F_q-span of x1..xn are additive in the moving
    form: `orbit_product` (the Frobenius recursion) of fa + fb against the
    sum of the literal products (`subspace_product`) of fa and fb."""
    q = params.get("q", 2)
    n = params.get("n", 2)
    field = field_from_order(q)
    space = gluing_space(field, 2, n)
    names = [f"x{i}" for i in range(1, n + 1)]
    basis = span_basis([space.variable(name) for name in names])
    y1, y2 = space.variable("y1"), space.variable("y2")
    forms = [y1, y2, y1 + y2]
    for c in range(2, field.q):
        forms.append(y1.scale(c) + y2)
    products = {f: subspace_product(space, names, f) for f in forms}
    for fa in (y1, y2):
        for fb in forms:
            if orbit_product(fa + fb, basis) != products[fa] + products[fb]:
                raise ClaimRefuted(f"additivity fails for {fa!r} + {fb!r}")


def check_field_axioms(params) -> str | None:
    import itertools as it
    p, r = params["p"], params.get("r", 1)
    field = build_field(p, r)
    if field.q > 9:
        raise BudgetExceeded("exhaustive check limited to q <= 9")
    elems = field.elements()
    for a, b, c in it.product(elems, repeat=3):
        if (a + b) + c != a + (b + c) or (a * b) * c != a * (b * c) \
                or a * (b + c) != a * b + a * c:
            raise ClaimRefuted(f"axiom fails at ({a},{b},{c})")
    for a in elems:
        if a ** field.q != a:
            raise ClaimRefuted(f"a^q != a at {a}")
    for a, b in it.product(elems, repeat=2):
        if (a + b).frobenius() != a.frobenius() + b.frobenius():
            raise ClaimRefuted(f"frobenius not additive at ({a},{b})")


def check_action_compatibility(params) -> str | None:
    """f.(g h) = (f.g).h for random polynomials f and pairs of elements of
    GL_n: all pairs when there are at most 2500, else 50 pairs per
    polynomial, drawn as `rng.choice` over the elements draws them.  The
    products g h of a pair list are formed together (`index_matmul`), the
    list of all pairs once, and each is named by its index in the
    enumerated group (one `searchsorted` of its key).  Every polynomial and
    its pairs are drawn first; one `mvpoly.compatibility_failures` call
    then forms f.g for every (f, element) a pair names, once each, and
    (f.g).h for every pair, each a bounded block of jobs per kernel call
    (`mvpoly._act_blocks`), and compares each block of (f.g).h with its
    f.(gh) on packed keys as it comes.  The first f with a failing pair is
    reported."""
    q = params.get("q", 2)
    n = params.get("n", 2)
    field = field_from_order(q)
    G = gl_group(n, field).enumerate()
    rows = G.rows()
    order = len(rows)
    rng = random.Random(params.get("seed", 0))
    space = VariableSpace(field, [f"z{i}" for i in range(1, n + 1)])
    samples = params.get("samples", 30)
    exhaustive = order ** 2 <= 2500

    def products(left, right):
        left, right = np.asarray(left), np.asarray(right)
        product = index_matmul(field, rows[left], rows[right])
        return left, right, np.searchsorted(
            G.keys, _keys(product.astype(rows.dtype)))

    polys, pairs = [], []
    for _ in range(samples):
        f = space.zero()
        for _ in range(rng.randrange(5)):
            e = tuple(rng.randrange(4) for _ in range(n))
            f = f + space.monomial(e, rng.randrange(1, field.q))
        polys.append(f)
        if not exhaustive:
            draws = [rng.choice(range(order)) for _ in range(100)]
            pairs.append(products(draws[0::2], draws[1::2]))
    if exhaustive:
        pairs = [products(*np.divmod(np.arange(order ** 2), order))] * \
            len(polys)
    a, b, c = (np.concatenate(part) for part in zip(*pairs))
    poly = np.repeat(np.arange(len(polys)), [len(part[0]) for part in pairs])
    failed = compatibility_failures(polys, rows, poly, a, b, c)
    if failed.any():
        f = polys[poly[failed.argmax()]]
        raise ClaimRefuted(f"compatibility fails for f={f!r}")


def check_transfer_module(params) -> str | None:
    """Transfer is G-stable on translates and F[V]^G-linear on invariant
    multiples.  Each sample draws a monomial f, an element g and an
    invariant h; one `transfer` call forms Tr(f), Tr(f.g) and Tr(h f) for
    every sample, and the first sample that breaks either law is reported,
    G-stability before linearity."""
    p = params.get("p", 2)
    gluing = u4_gluing(p)
    space = gluing_space(gluing.field, 2, 2)
    msub = gluing.m_subgroup()
    rows = msub.rows()
    rng = random.Random(params.get("seed", 0))
    invariants = [space.variable("x1"), space.variable("x2"),
                  dickson_in(space, ["x1", "x2"], 2)]
    samples = []
    for _ in range(params.get("samples", 8)):
        e = tuple(rng.randrange(3) for _ in range(space.dim))
        g = rows[rng.choice(range(len(rows)))].tolist()
        samples.append((e, space.monomial(e), g, rng.choice(invariants)))
    count = len(samples)
    images = transfer([f for _, f, _, _ in samples] +
                      [f.act(g) for _, f, g, _ in samples] +
                      [h * f for _, f, _, h in samples], msub)
    for (e, _, _, h), tf, tfg, thf in zip(samples, images, images[count:],
                                          images[2 * count:]):
        if tfg != tf:
            raise ClaimRefuted(f"Tr(f.g) != Tr(f) at {e}")
        if thf != h * tf:
            raise ClaimRefuted(f"Tr(h f) != h Tr(f) at {e}")


def check_identity(params) -> VerificationReport:
    name = params["name"]
    return identity_suite(name, params.get("params", {}))


def check_gk_non_ci_conjecture(params) -> VerificationReport:
    """The conjectured extra relations of the type-m parabolic invariant ring
    would need normal forms modulo the relation ideal; that machinery is out
    of scope, so the check is recorded as skipped."""
    return VerificationReport("gk_non_ci_conjecture", params, "skipped",
                              notes="requires normal-form machinery")


CHECKS = {
    "identity": check_identity,
    "group_order": check_group_order,
    "glued_order": check_glued_order,
    "stabilizer_order": check_stabilizer_order,
    "hilbert": check_hilbert,
    "degree_product": check_degree_product,
    "family": check_family,
    "semidirect_law": check_semidirect_law,
    "thin_glue": check_thin_glue,
    "transfer_example": check_transfer_example,
    "transfer_factorization": check_transfer_factorization,
    "parabolic_family": check_parabolic_family,
    "singular_form": check_singular_form,
    "orbit_additivity": check_orbit_additivity,
    "field_axioms": check_field_axioms,
    "action_compatibility": check_action_compatibility,
    "transfer_module": check_transfer_module,
    "gk_non_ci_conjecture": check_gk_non_ci_conjecture,
}

# The params each check kind reads without a default; `cli.load_scenario`
# refuses an entry that lacks one.  Keys a check needs only for some values
# of another (the gluing tokens of `build_gluing`, the group tokens of
# `build_group`) are left to the check.
REQUIRED_PARAMS = {
    "identity": ("name",),
    "group_order": ("kind",),
    "glued_order": (),
    "stabilizer_order": ("q", "polynomial", "order"),
    "hilbert": ("group", "generators"),
    "degree_product": ("family",),
    "family": ("family",),
    "semidirect_law": (),
    "thin_glue": ("p", "r"),
    "transfer_example": ("p",),
    "transfer_factorization": (),
    "parabolic_family": ("q",),
    "singular_form": ("q",),
    "orbit_additivity": (),
    "field_axioms": ("p",),
    "action_compatibility": (),
    "transfer_module": (),
    "gk_non_ci_conjecture": (),
}


def run_check(kind: str, params: dict, budgets: dict = None) -> VerificationReport:
    """Run one named check under budgets (`groups.run_budgets`), timed by a
    monotonic clock into `millis`, and write its report.  The notes a check
    returns make a passed report; a report it returns is taken as it is.  A
    BudgetExceeded raised anywhere inside the check becomes a skipped
    report carrying its message, a ClaimRefuted a failed report with its
    message as the witness; every other exception propagates.  ValueError
    for a `samples` param that is not an int >= 1 or a degree bound `D`
    that is not an int >= 0."""
    if kind not in CHECKS:
        raise ValueError(f"unknown check kind {kind!r}; known: {sorted(CHECKS)}")
    for name, least in (("samples", 1), ("D", 0)):
        value = params.get(name, least)
        if type(value) is not int or value < least:
            raise ValueError(f"bad {name}={value!r}: an int >= {least}")
    token = RUN_BUDGETS.set(run_budgets(budgets or {}))
    t0 = time.perf_counter()
    try:
        report = CHECKS[kind](params)
        if not isinstance(report, VerificationReport):
            report = VerificationReport(kind, params, "pass", notes=report)
    except BudgetExceeded as exc:
        report = VerificationReport(kind, params, "skipped", notes=str(exc))
    except ClaimRefuted as exc:
        report = VerificationReport(kind, params, "fail", witness=str(exc))
    finally:
        RUN_BUDGETS.reset(token)
    report.millis = (time.perf_counter() - t0) * 1000
    return report
