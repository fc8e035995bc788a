"""Layout rules for the package sources, checked on their syntax trees."""

import ast
import importlib
import importlib.util
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from molvae import cli, encoder, fingerprint, numkernel as nk, train, vaemodel
from molvae.corpus import DRUG_SMILES, random_molecule
from molvae.dataio import Dataset, Record
from molvae.smiles import parse_smiles

SRC = Path(__file__).resolve().parents[1] / "src" / "molvae"
MODULES = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}


def internal_imports(tree: ast.Module) -> set[str]:
    """Names of the molvae modules that a module imports, at any depth."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] != "molvae":
                continue
            parts = (node.module or "").split(".")
            mod = parts[1] if node.level == 0 and len(parts) > 1 else parts[0]
            if mod:
                out.add(mod)
            else:  # `from . import a, b` names modules
                out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "molvae" and len(parts) > 1:
                    out.add(parts[1])
    return out & set(MODULES)


def test_sources_found():
    assert {"cli", "encoder", "vaemodel", "fingerprint"} <= set(MODULES)


@pytest.mark.parametrize("name", sorted(MODULES))
def test_no_import_inside_a_function(name):
    local = [
        f"{fn.name}:{node.lineno}"
        for fn in ast.walk(MODULES[name])
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert local == []


def test_internal_import_graph_is_acyclic():
    graph = {name: internal_imports(tree) - {name} for name, tree in MODULES.items()}
    done: set[str] = set()

    def visit(name: str, path: list[str]) -> None:
        if name in path:
            cycle = path[path.index(name):] + [name]
            pytest.fail("import cycle: " + " -> ".join(cycle))
        if name in done:
            return
        for dep in sorted(graph[name]):
            visit(dep, path + [name])
        done.add(name)

    for name in sorted(graph):
        visit(name, [])


def test_cli_does_not_import_encoder():
    assert "encoder" not in internal_imports(MODULES["cli"])


def _functions(tree: ast.Module):
    """(qualified name, node) of each function at module or class level."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{fn.name}", fn) for fn in node.body if isinstance(fn, ast.FunctionDef))


def _public_api(tree: ast.Module) -> list[str]:
    """Qualified name of each public function and class at module level, and
    of each public method of those classes; dunder methods are not public."""
    names = [node.name for node in tree.body if isinstance(node, ast.ClassDef)]
    names += [name for name, _ in _functions(tree)]
    return [name for name in names if not any(part.startswith("_") for part in name.split("."))]


def _strings(tree: ast.Module) -> list[str]:
    """Every string constant of a module's code that is not a docstring."""
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
    }
    return [
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings
    ]


def _named(tree: ast.Module) -> set[str]:
    """Every identifier a module's code reads, imports or spells in a string
    that is not a docstring (molbench's tracer names what it wraps that way)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.split(".")[-1])
    for text in _strings(tree):
        out.update(re.findall(r"[A-Za-z_]\w*", text))
    return out


def _read_as_methods(tree: ast.Module) -> set[str]:
    """Every attribute name a module's code reads, and every "Class.method"
    string it spells outside a docstring, as molbench's tracer names the
    methods it wraps."""
    out = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    for text in _strings(tree):
        out.update(re.findall(r"[A-Za-z_]\w*\.[A-Za-z_]\w*", text))
    return out


def _callers() -> dict[str, ast.Module]:
    """The code that may call the package, by name: its own modules (by
    stem), the benchmark, the scripts and the acceptance tests."""
    root = SRC.parents[1]
    outside = [*sorted((root / "molbench").glob("*.py")), *sorted((root / "scripts").glob("*.py"))]
    outside.append(root / "tests" / "test_acceptance.py")
    return {**MODULES, **{str(p.relative_to(root)): ast.parse(p.read_text(encoding="utf-8")) for p in outside}}


def test_every_public_name_has_a_caller_outside_the_unit_tests():
    """Code that no caller needs is deleted: each public function, class and
    method of the package is named in the package, the benchmark, the
    scripts or the acceptance tests, not only in its own unit tests. A
    method counts as called only where an attribute of its name is read or
    its "Class.method" is spelled out, not where a local variable shares its
    name."""
    callers = _callers().values()
    named = set().union(*map(_named, callers))
    methods = set().union(*map(_read_as_methods, callers))

    def called(name):
        if "." in name:  # Class.method
            return name in methods or name.split(".")[-1] in methods
        return name in named

    unused = [f"{mod}.{name}" for mod, tree in MODULES.items() for name in _public_api(tree) if not called(name)]
    assert unused == []


def _re_exports(tree: ast.Module) -> set[str]:
    """Names a module imports from a sibling and never uses itself."""
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        and ((node.level == 1 and node.module) or (node.module or "").startswith("molvae."))
        for alias in node.names
    }
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _reads_from_modules(caller: str, tree: ast.Module) -> set[tuple[str, str]]:
    """(module stem, name) for each name the caller reads from a package
    module; the package itself is "__init__". A name is read by
    `from molvae.M import name`, `from molvae import name`, `from .M import
    name` inside the package, or `alias.name` where alias is bound to M."""
    inside = caller in MODULES

    def stem(dotted: str) -> str | None:  # "molvae" -> "__init__", "molvae.M" -> "M"
        parts = dotted.split(".")
        if parts[0] != "molvae" or len(parts) > 2:
            return None
        return parts[1] if len(parts) == 2 else "__init__"

    bound: dict[str, str] = {}  # dotted name in the caller -> module stem
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if stem(alias.name) is None:
                    continue
                if alias.asname:
                    bound[alias.asname] = stem(alias.name)
                else:  # `import molvae.M` binds molvae and spells molvae.M
                    bound["molvae"] = "__init__"
                    bound[alias.name] = stem(alias.name)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                source = stem(node.module or "")
            else:
                source = (node.module or "__init__") if inside and node.level == 1 else None
            if source is None:
                continue
            for alias in node.names:
                if source == "__init__" and alias.name in MODULES:  # `from molvae import M` binds a module
                    bound[alias.asname or alias.name] = alias.name
                else:
                    reads.add((source, alias.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and ast.unparse(node.value) in bound:
            reads.add((bound[ast.unparse(node.value)], node.attr))
    return {(mod, name) for mod, name in reads if mod != caller}


def test_every_re_export_is_read_from_its_module():
    """A name a module imports from a sibling and never uses itself is there
    only for callers to read from it, so some caller outside the unit tests
    must: names that no caller reads through it are deleted, not kept as a
    second way in."""
    reads = set().union(*(_reads_from_modules(caller, tree) for caller, tree in _callers().items()))
    unread = sorted(
        f"{'molvae' if mod == '__init__' else mod}.{name}"
        for mod, tree in MODULES.items()
        for name in _re_exports(tree)
        if (mod, name) not in reads
    )
    assert unread == []


def _named_outside_raise_and_import(tree: ast.Module) -> set[str]:
    """Every identifier a module's code reads outside its `raise` statements
    and imports: in an `except` clause, a table, a class's bases, a call."""
    out = set()

    def visit(node):
        if isinstance(node, (ast.Raise, ast.Import, ast.ImportFrom)):
            return
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return out


def test_every_exception_class_is_handled_by_name():
    """An exception class earns its place only where some code tells it apart
    from its base: it is named outside a `raise` and an import somewhere in
    the package, the benchmark, the scripts or the acceptance tests (an
    `except` clause, the CLI's exit-code table, a subclass's base). A class
    that is only raised says nothing its base and message do not."""
    named = set().union(*map(_named_outside_raise_and_import, _callers().values()))
    unhandled = sorted(
        f"{mod}.{node.name}"
        for mod, tree in MODULES.items()
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        and issubclass(getattr(importlib.import_module(f"molvae.{mod}"), node.name), BaseException)
        and node.name not in named
    )
    assert unhandled == []


def _named_in_except(tree: ast.Module) -> set[str]:
    """Every identifier in the class lists of a module's `except` clauses."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for handler in ast.walk(tree)
        if isinstance(handler, ast.ExceptHandler) and handler.type is not None
        for n in ast.walk(handler.type)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def test_no_module_has_two_uncaught_classes_for_one_exit_code():
    """Two exception classes of one module that the CLI's exit-code table maps
    to the same code, and that no `except` clause in the package, the
    benchmark, the scripts or the acceptance tests names, are one failure
    told twice: one class is raised for both."""
    caught = set().union(*map(_named_in_except, _callers().values()))
    by_code: dict[tuple[str, int], list[str]] = {}
    for mod, tree in MODULES.items():
        module = importlib.import_module(f"molvae.{mod}")
        for node in tree.body:
            cls = getattr(module, node.name) if isinstance(node, ast.ClassDef) else None
            if cls in cli._EXIT_CODES and node.name not in caught:
                by_code.setdefault((mod, cli._EXIT_CODES[cls]), []).append(f"{mod}.{node.name}")
    assert [names for names in by_code.values() if len(names) > 1] == []


def test_only_main_and_the_parser_write_to_stderr():
    writers = sorted(
        name
        for name, fn in _functions(MODULES["cli"])
        if any(isinstance(n, ast.Attribute) and n.attr == "stderr" for n in ast.walk(fn))
    )
    assert writers == ["_Parser.error", "main"]


def test_commands_print_only_through_emit():
    """Every command's output goes through `_emit`, so `--json` keys come out sorted."""
    printers = sorted(
        name
        for name, fn in _functions(MODULES["cli"])
        if any(isinstance(n, ast.Name) and n.id == "print" for n in ast.walk(fn))
    )
    assert printers == ["_Parser.error", "_emit", "main"]


def test_commands_return_only_their_result_codes():
    """A command's failure is an exception that `main` maps to its exit code;
    only validate and gradcheck return a code, the verdict of their check."""
    returned = {
        name: sorted(
            n.id
            for ret in ast.walk(fn)
            if isinstance(ret, ast.Return) and ret.value is not None
            for n in ast.walk(ret.value)
            if isinstance(n, ast.Name) and n.id.startswith("EXIT_")
        )
        for name, fn in _functions(MODULES["cli"])
        if name.startswith("cmd_")
    }
    assert len(returned) == 8
    assert {name: codes for name, codes in returned.items() if codes} == {
        "cmd_validate": ["EXIT_DOMAIN"],
        "cmd_gradcheck": ["EXIT_NUMERIC"],
    }


def _flags(tree: ast.Module):
    """(subcommand, `add_argument` call) for each flag that `build_parser` adds;
    the subcommand is None for the flags every subcommand has."""
    build = next(fn for name, fn in _functions(tree) if name == "build_parser")
    command = None
    for stmt in build.body:
        call = stmt.value if isinstance(stmt, ast.Assign) else None
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "add":
            command = call.args[0].value
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument":
                yield command, node


def _is_literal(node: ast.expr) -> bool:
    try:
        ast.literal_eval(node)
    except ValueError:
        return False
    return True


def test_no_flag_restates_a_config_default_or_the_edge_threshold():
    """The defaults of TrainConfig's and FpConfig's fields and the edge
    threshold are written once, in the library: no flag that feeds one has a
    literal default."""
    fed = {
        "train": {f.name for f in fields(train.TrainConfig)},
        "fingerprint": {f.name for f in fields(fingerprint.FpConfig)},
        "reconstruct": {"threshold"},
    }
    restated = []
    for command, call in _flags(MODULES["cli"]):
        kw = {k.arg: k.value for k in call.keywords}
        flag = call.args[0].value
        dest = kw["dest"].value if "dest" in kw else flag.lstrip("-").replace("-", "_")
        if dest in fed.get(command, ()) and "default" in kw and _is_literal(kw["default"]):
            restated.append(f"{command} {flag}")
    assert restated == []


def test_the_parameter_table_is_assembled_only_in_vaemodel():
    assert "encoder" not in internal_imports(MODULES["dataio"])
    assigners = sorted(
        name
        for name, tree in MODULES.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and target.id == "PARAM_SHAPES"
    )
    assert assigners == ["vaemodel"]


def test_inference_runs_only_through_vaemodel():
    assert "fingerprint" not in internal_imports(MODULES["train"])
    assert "fingerprint" not in internal_imports(MODULES["vaemodel"])


@pytest.mark.parametrize("name", sorted(set(MODULES) - {"vaemodel"}))
def test_only_vaemodel_runs_the_encoder(name):
    """Every use of a model goes through vaemodel's one batched forward: no
    other module calls `encoder.encode` or `encoder.pool`, or imports them."""
    found = [
        f"{node.attr}:{node.lineno}"
        for node in ast.walk(MODULES[name])
        if isinstance(node, ast.Attribute)
        and node.attr in {"encode", "pool"}
        and isinstance(node.value, ast.Name)
        and node.value.id == "encoder"
    ] + [
        f"{alias.name}:{node.lineno}"
        for node in ast.walk(MODULES[name])
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "encoder"
        for alias in node.names
        if alias.name in {"encode", "pool"}
    ]
    assert found == []


def _queries(store):
    """Every inference entry point, by name, as a call on a few molecules."""
    a, b = parse_smiles(DRUG_SMILES["aspirin"]), parse_smiles("CCO")
    smiles = ("CCO", "CC=O", "CCCN", "C1CC1", "CC")
    records = [Record(s, parse_smiles(s), {"y": float(len(s))}) for s in smiles]
    return {
        "pooled_vector": lambda: vaemodel.pooled_vector(a, store),
        "pooled_vectors": lambda: vaemodel.pooled_vectors([a, b], store),
        "decode_probs": lambda: vaemodel.decode_probs(a, store),
        "decoded_blocks": lambda: vaemodel.decoded_blocks([a, b], store),
        "predict": lambda: vaemodel.predict(a, store),
        "reconstruct": lambda: vaemodel.reconstruct(a, store),
        "latent_similarity": lambda: fingerprint.latent_similarity(a, b, store),
        "evaluate_validity": lambda: train.evaluate_validity(store, Dataset(records)),
        "evaluate_edge_auc": lambda: train.evaluate_edge_auc(store, Dataset(records)),
        "fit_probe": lambda: train.fit_probe(store, Dataset(records), "y"),
    }


def test_inference_never_builds_the_sigma_head(monkeypatch):
    """The sigma head only feeds the sampled training latent; every query of a
    trained model must leave it out of its encoder pass."""
    prefixes = []
    real = encoder.rgcn_layer

    def recording(h, aggs, store, prefix, activate):
        prefixes.append(prefix)
        return real(h, aggs, store, prefix, activate)

    monkeypatch.setattr(encoder, "rgcn_layer", recording)
    for name, query in _queries(vaemodel.init_model_params(seed=0)).items():
        prefixes.clear()
        query()
        assert prefixes == ["enc.l1", "enc.l2", "enc.mu"], name


def test_inference_records_no_tape(monkeypatch):
    """A query of a trained model keeps no tape: every op output it makes is
    a bare value, holding no parent and no gradient rule."""
    made = []
    real = nk.Tensor.__init__

    def keeping(self, *args, **kwargs):
        real(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(nk.Tensor, "__init__", keeping)
    for name, query in _queries(vaemodel.init_model_params(seed=0)).items():
        made.clear()
        query()
        assert any(t.name == "rgcn_layer" for t in made), name
        assert [t.name for t in made if t._parents or t._grad_fn] == [], name


def test_only_vaemodel_queries_enter_the_tape_free_pass():
    """Recording is on everywhere but inside `numkernel.tape_free`: only
    numkernel reads or sets the recording state, and only vaemodel's queries
    of a trained model enter the tape-free pass, so training code cannot run
    without a tape by accident."""
    def mentions(tree, ident):
        return any(
            (isinstance(n, ast.Name) and n.id == ident)
            or (isinstance(n, ast.Attribute) and n.attr == ident)
            or (isinstance(n, (ast.alias, ast.FunctionDef)) and n.name == ident)
            for n in ast.walk(tree)
        )

    assert {mod for mod, tree in MODULES.items() if mentions(tree, "_RECORDING")} == {"numkernel"}
    assert {mod for mod, tree in MODULES.items() if mentions(tree, "tape_free")} == {"numkernel", "vaemodel"}
    callers = {fn for fn, node in _functions(MODULES["vaemodel"]) if mentions(node, "tape_free")}
    assert callers == {"pooled_vectors", "decoded_blocks", "predict"}


@pytest.mark.parametrize("name", sorted(MODULES))
def test_gradients_live_only_inside_backward(name):
    """No tensor carries a gradient, and only numkernel walks the tape."""
    tape_attrs = {"grad"} | (set() if name == "numkernel" else {"_parents", "_grad_fn"})
    found = [
        f"{node.attr}:{node.lineno}"
        for node in ast.walk(MODULES[name])
        if isinstance(node, ast.Attribute) and node.attr in tape_attrs
    ]
    assert found == []


@pytest.mark.parametrize("name", sorted(set(MODULES) - {"chem"}))
def test_only_chem_weighs_bonds(name):
    """Bond weights toward valence are summed in one place: chem.bond_order_sums."""
    found = [
        f"{node.attr}:{node.lineno}"
        for node in ast.walk(MODULES[name])
        if isinstance(node, ast.Attribute) and node.attr == "weight"
    ]
    assert found == []


def test_every_benchmark_span_resolves_against_the_library():
    """molbench's tracer wraps SPANS by name; a refactor must not strand one."""
    path = SRC.parents[1] / "molbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("molbench_tracing_spans", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    stranded = []
    for module, attr, _name, _value in tracing.SPANS:
        mod = importlib.import_module(f"molvae.{module}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            ok = isinstance(vars(getattr(mod, cls_name, object)).get(meth), classmethod)
        else:
            ok = callable(getattr(mod, attr, None))
        if not ok:
            stranded.append(f"{module}.{attr}")
    assert len(tracing.SPANS) > 20
    assert stranded == []


def test_fingerprint_spans_see_every_call(monkeypatch):
    """The benchmark's `fingerprint.enumerate`, `fingerprint.key` and
    `fingerprint.compare` spans wrap module attributes; the library must reach
    all three through them: enumeration once per molecule, keying once per
    subgraph it returns, and comparison once per pair."""
    calls = {"enumerate_subgraphs": 0, "canonical_subgraph_key": 0, "tanimoto": 0}
    found = []  # len of each enumerate_subgraphs result
    for name in calls:
        orig = getattr(fingerprint, name)

        def counted(*args, _orig=orig, _name=name):
            calls[_name] += 1
            out = _orig(*args)
            if _name == "enumerate_subgraphs":
                found.append(len(out))
            return out

        monkeypatch.setattr(fingerprint, name, counted)
    smiles = [DRUG_SMILES["aspirin"], DRUG_SMILES["caffeine"]]
    fingerprint.path_fingerprint(parse_smiles(smiles[0]))
    assert calls == {"enumerate_subgraphs": 1, "canonical_subgraph_key": found[0], "tanimoto": 0}
    assert cli.main(["similar", "--metric", "tanimoto", "--smiles", smiles[0], "--smiles", smiles[1]]) == 0
    assert calls == {"enumerate_subgraphs": 3, "canonical_subgraph_key": sum(found), "tanimoto": 1}


def test_single_molecule_queries_reach_the_tensors_span_once(monkeypatch):
    """The benchmark's `chem.tensors` span wraps the `MolTensors.from_mol`
    class attribute; each single-molecule query must build through it once."""
    calls = []
    raw = vars(vaemodel.MolTensors)["from_mol"]

    def counted(cls, mol):
        calls.append(mol)
        return raw.__func__(cls, mol)

    monkeypatch.setattr(vaemodel.MolTensors, "from_mol", classmethod(counted))
    store = vaemodel.init_model_params(seed=0)
    mol = parse_smiles(DRUG_SMILES["aspirin"])
    for query in (vaemodel.pooled_vector, vaemodel.decode_probs, vaemodel.reconstruct):
        calls.clear()
        query(mol, store)
        assert calls == [mol], query.__name__


def test_fingerprint_hashes_once_per_molecule(monkeypatch):
    """`path_fingerprint` hashes all of a molecule's keys in one call, whatever
    their number: a per-key loop would call the hash functions once per key."""
    calls = {"hash_keys": 0, "fnv1a64_array": 0, "splitmix64_array": 0}
    for name in calls:
        orig = getattr(fingerprint, name)

        def counted(*args, _orig=orig, _name=name):
            calls[_name] += 1
            return _orig(*args)

        monkeypatch.setattr(fingerprint, name, counted)
    smiles = ["CCO", DRUG_SMILES["aspirin"], DRUG_SMILES["caffeine"]]
    for s in smiles:
        fingerprint.path_fingerprint(parse_smiles(s))
    assert calls == dict.fromkeys(calls, len(smiles))
    fingerprint.path_fingerprint(parse_smiles("C"))  # no keys: no hashing
    assert calls == {"hash_keys": 4, "fnv1a64_array": 3, "splitmix64_array": 3}


def test_trained_parameters_are_views_of_one_buffer():
    """Adam updates the store's flat buffer; every parameter must live in it."""
    smiles = ["CCO", "CC(C)O", "C=C", "C"]
    records = [Record(s, parse_smiles(s), {"y": float(len(s))}) for s in smiles]
    params, _ = train.train(Dataset(records=records), "y", train.TrainConfig(epochs=2, batch_size=3))
    assert params.flat.size == sum(p.data.size for _, p in params.items())
    assert all(np.shares_memory(p.data, params.flat) for _, p in params.items())


def test_pooled_vector_checks_finiteness_once_not_per_op(monkeypatch):
    """Only leaves and the result are checked: a per-op check would call
    `np.isfinite` once for each of the tape's 8 ops."""
    mol = random_molecule(np.random.default_rng(0), 20)
    store = vaemodel.init_model_params(seed=0)
    calls = []
    real = np.isfinite

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "isfinite", counting)
    vaemodel.pooled_vector(mol, store)
    assert 1 <= len(calls) <= 3
