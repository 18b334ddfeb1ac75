#!/usr/bin/env python3
"""Self-test for tools/simlint.py.

Covers:
  * every known-bad fixture trips *exactly* its expected rule(s), including
    HIB023 callback-lifetime (by-ref capture, early release,
    release-via-helper) and HIB025 layering;
  * the clean fixtures produce nothing — HIB023, HIB025 and HIB026 have a
    clean twin exercising the sanctioned shapes next to the violation, and
    tokenizer_torture.h packs raw strings containing `//`, multi-line block
    comments, `#if 0` regions, digit separators, and UTF-8 literals;
  * the HIB023 release-via-helper witness chain is in order (schedule site,
    hand-off, release);
  * the interproc fixture directory trips HIB018 with the exact cross-file
    witness chain (call path) in the text output;
  * the advertised rule set and the fixture set stay in sync;
  * suppression semantics: NOLINT silences the rule, a stale NOLINT is HIB099,
    clang-tidy NOLINTs are ignored;
  * --partial: an interproc NOLINT whose root is outside the scanned subset
    is not reported stale, while a full scan of the same subset reports it;
  * SARIF output is structurally sound and interproc findings carry codeFlows.

Run from anywhere; registered in ctest as `simlint_selftest`.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
SIMLINT = os.path.join(HERE, "simlint.py")
FIXTURES = os.path.join(HERE, "simlint_fixtures")

# fixture -> exact ordered list of expected rules (most have exactly one).
EXPECTED = {
    "bad_guard.h": ["HIB001"],
    "bad_iostream.h": ["HIB002"],
    "bad_raw_io.cc": ["HIB003"],
    "bad_assert.cc": ["HIB005"],
    "bad_static_mutable.cc": ["HIB006"],
    "bad_value_escape.cc": ["HIB008"],
    "bad_hand_conversion.cc": ["HIB009"],
    "bad_raw_output.cc": ["HIB010"],
    "bad_unordered_iter.cc": ["HIB011"],
    "bad_pointer_key.cc": ["HIB012"],
    "bad_wall_clock.cc": ["HIB013"],
    "bad_float_accum.cc": ["HIB014"],
    "bad_uninit_member.cc": ["HIB015"],
    "bad_catch.cc": ["HIB016"],
    "bad_handle_reuse.cc": ["HIB021"],
    "bad_callback_lifetime.cc": ["HIB023", "HIB023", "HIB023"],
    "bad_raw_deser.cc": ["HIB026", "HIB026"],
    "layering/disk/bad_layering.cc": ["HIB025"],
    "unused_suppression.cc": ["HIB099"],
}
CLEAN = ["clean.h", "tokenizer_torture.h", "clean_callback_lifetime.cc",
         "clean_raw_deser.cc", "layering/disk/clean_layering.cc"]

# Per-file witness chains: (fixture, line) -> ordered note substrings.
FILE_CHAINS = {
    ("bad_callback_lifetime.cc", 39): [
        "callback capturing 'h' scheduled here",
        "'h' passed to 'Controller::Finish' here",
        "'Controller::Finish' releases its handle parameter here",
    ],
}

# The interproc fixtures only make sense scanned together: the root
# (hot_submit.cc) is clean in isolation and the helper is only a finding
# because the root reaches it.  (file, line, rule) in output order for a
# whole-directory scan.
INTERPROC_DIR = os.path.join(FIXTURES, "interproc")
INTERPROC_EXPECTED = [
    ("alloc_helper.cc", 12, "HIB018"),
    ("alloc_helper.cc", 13, "HIB018"),
]

# finding line -> exact ordered witness-chain note substrings.
INTERPROC_CHAINS = {
    ("alloc_helper.cc", 13): [
        "hot_submit.cc:12: dispatch root 'ArrayController::Submit' defined here",
        "hot_submit.cc:14: 'ArrayController::Submit' calls 'Planner::PlanTargets' here",
        "alloc_helper.cc:13: allocation here",
    ],
}

FINDING_RE = re.compile(r"^(\S+):(\d+): \[(HIB\d+)\] ")
NOTE_RE = re.compile(r"^    note: (.*)$")


def run_simlint(*argv, raw=False):
    proc = subprocess.run([sys.executable, SIMLINT] + list(argv),
                          capture_output=True, text=True)
    findings = [FINDING_RE.match(line) for line in proc.stdout.splitlines()]
    rules = [m.group(3) for m in findings if m]
    if raw:
        return proc.returncode, rules, proc.stdout
    return proc.returncode, rules


def check_fixtures(failures):
    for name, want in sorted(EXPECTED.items()):
        code, rules = run_simlint(os.path.join(FIXTURES, name))
        if code == 0:
            failures.append(f"{name}: expected nonzero exit, got 0")
        if rules != want:
            failures.append(f"{name}: expected exactly {want}, got {rules}")
    for name in CLEAN:
        code, rules = run_simlint(os.path.join(FIXTURES, name))
        if code != 0 or rules:
            failures.append(f"{name}: expected clean exit, got code={code} rules={rules}")


def parse_output(stdout):
    """(file, line, rule) per finding in output order, plus each finding's
    witness-chain notes keyed by (file, line)."""
    got, notes, current = [], {}, None
    for line in stdout.splitlines():
        m = FINDING_RE.match(line)
        if m:
            current = (os.path.basename(m.group(1)), int(m.group(2)))
            got.append((current[0], current[1], m.group(3)))
            notes.setdefault(current, [])
            continue
        n = NOTE_RE.match(line)
        if n and current is not None:
            notes[current].append(n.group(1))
        elif current is not None and line.strip():
            current = None
    return got, notes


def check_chains(label, chains, notes, failures):
    # Witness chains must spell out the whole path, in order.
    for key, want in sorted(chains.items()):
        have = notes.get(key, [])
        if len(have) != len(want):
            failures.append(f"{label} {key}: expected {len(want)} witness "
                            f"steps, got {len(have)}: {have}")
            continue
        for step, (w, h) in enumerate(zip(want, have)):
            if w not in h:
                failures.append(f"{label} {key} step {step}: "
                                f"expected {w!r} in {h!r}")


def check_interproc(failures):
    # One whole-directory scan: the cross-TU rules need the files modelled
    # together before reachability exists at all.
    code, _, stdout = run_simlint(INTERPROC_DIR, raw=True)
    if code == 0:
        failures.append("interproc: expected nonzero exit for the fixture dir")
    got, notes = parse_output(stdout)
    if got != INTERPROC_EXPECTED:
        failures.append(f"interproc: expected {INTERPROC_EXPECTED}, got {got}")
        return
    # The root lives in hot_submit.cc, the allocation in alloc_helper.cc.
    check_chains("interproc", INTERPROC_CHAINS, notes, failures)

    # Scanned alone, the helper is not hot: per-file analysis of
    # alloc_helper.cc must not produce HIB018.
    code, rules = run_simlint(os.path.join(INTERPROC_DIR, "alloc_helper.cc"))
    if "HIB018" in rules:
        failures.append("interproc: HIB018 fired without the hot-path root "
                        f"in scope (per-file rules: {rules})")


def check_file_chains(failures):
    # Witness chains also appear in per-file scans when the schedule site and
    # the releasing callee live in one fixture file.
    for name in sorted({name for name, _ in FILE_CHAINS}):
        _code, _rules, stdout = run_simlint(os.path.join(FIXTURES, name),
                                            raw=True)
        chains = {k: v for k, v in FILE_CHAINS.items() if k[0] == name}
        check_chains("chain", chains, parse_output(stdout)[1], failures)


def check_rule_sync(failures):
    # Every advertised rule must have a fixture proving it still fires.
    listing = subprocess.run([sys.executable, SIMLINT, "--list-rules"],
                             capture_output=True, text=True).stdout
    advertised = set(re.findall(r"^(HIB\d+)", listing, flags=re.M))
    covered = set(r for rules in EXPECTED.values() for r in rules)
    covered |= set(rule for _, _, rule in INTERPROC_EXPECTED)
    if advertised != covered:
        failures.append(f"rules without fixtures: {sorted(advertised - covered)}; "
                        f"fixtures for unknown rules: {sorted(covered - advertised)}")


def check_suppressions(failures):
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        # NOLINT on the finding line silences the rule.
        path = os.path.join(tmp, "suppressed.cc")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('#include <cassert>\n'
                     'void F(bool ok) { assert(ok); }  // NOLINT(HIB005)\n')
        code, rules = run_simlint(path)
        if code != 0 or rules:
            failures.append(f"NOLINT(HIB005) not honoured: code={code} rules={rules}")

        # NOLINTNEXTLINE applies to the following line only.
        path = os.path.join(tmp, "nextline.cc")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('#include <cassert>\n'
                     '// NOLINTNEXTLINE(HIB005)\n'
                     'void F(bool ok) { assert(ok); }\n')
        code, rules = run_simlint(path)
        if code != 0 or rules:
            failures.append(f"NOLINTNEXTLINE not honoured: code={code} rules={rules}")

        # A clang-tidy NOLINT is not ours: ignored, and never flagged HIB099.
        path = os.path.join(tmp, "tidy.cc")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('struct S { S(int) {} };  '
                     '// NOLINT(google-explicit-constructor)\n')
        code, rules = run_simlint(path)
        if code != 0 or rules:
            failures.append(f"clang-tidy NOLINT misclaimed: code={code} rules={rules}")

        # NOLINT for the wrong rule: the finding survives AND the
        # suppression is reported stale.
        path = os.path.join(tmp, "wrongrule.cc")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('#include <cassert>\n'
                     'void F(bool ok) { assert(ok); }  // NOLINT(HIB013)\n')
        code, rules = run_simlint(path)
        if sorted(rules) != ["HIB005", "HIB099"]:
            failures.append(f"wrong-rule NOLINT: expected [HIB005, HIB099], got {rules}")


def check_partial(failures):
    # A NOLINT for an interproc rule is proven live only by a scan that
    # includes the root reaching it.  Scanned alone, the helper's suppression
    # looks stale: a full scan must say so, --partial (the pre-commit subset
    # scan) must not.
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        with open(os.path.join(INTERPROC_DIR, "alloc_helper.cc"),
                  encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        lines[12] += "  // NOLINT(HIB018)"  # the line-13 new expression
        helper = os.path.join(tmp, "alloc_helper.cc")
        with open(helper, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        shutil.copy(os.path.join(INTERPROC_DIR, "hot_submit.cc"), tmp)

        code, rules = run_simlint(tmp)
        if rules != ["HIB018"]:
            failures.append(f"partial: pair scan expected only the unsuppressed "
                            f"HIB018, got {rules}")
        code, rules = run_simlint(helper)
        if code == 0 or rules != ["HIB099"]:
            failures.append(f"partial: helper alone expected [HIB099], got "
                            f"code={code} rules={rules}")
        code, rules = run_simlint("--partial", helper)
        if code != 0 or rules:
            failures.append(f"partial: helper alone under --partial expected "
                            f"clean, got code={code} rules={rules}")


def check_sarif(failures):
    # SARIF must be structurally sound, and interproc findings must export
    # their witness chains as codeFlows so code scanning UIs can render the
    # path.
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        out = os.path.join(tmp, "out.sarif")
        subprocess.run([sys.executable, SIMLINT, "--sarif", out,
                        INTERPROC_DIR], capture_output=True, text=True)
        try:
            with open(out, encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            failures.append(f"sarif: unreadable output: {err}")
            return
        try:
            if doc["version"] != "2.1.0":
                failures.append(f"sarif: version {doc['version']}")
            run = doc["runs"][0]
            driver = run["tool"]["driver"]
            if driver["name"] != "simlint":
                failures.append("sarif: wrong driver name")
            rule_ids = {r["id"] for r in driver["rules"]}
            results = run["results"]
            for res in results:
                if res["ruleId"] not in rule_ids:
                    failures.append(f"sarif: result rule {res['ruleId']} not declared")
                loc = res["locations"][0]["physicalLocation"]
                if not loc["artifactLocation"]["uri"]:
                    failures.append("sarif: empty artifact uri")
                if loc["region"]["startLine"] < 1:
                    failures.append("sarif: non-positive startLine")
            hib018 = [r for r in results
                      if r["ruleId"] == "HIB018" and r.get("codeFlows")]
            if not hib018:
                failures.append("sarif: no HIB018 result carries codeFlows")
                return
            locs = hib018[0]["codeFlows"][0]["threadFlows"][0]["locations"]
            if len(locs) < 2:
                failures.append(f"codeflows: chain too short ({len(locs)} steps)")
            uris = []
            for step in locs:
                loc = step["location"]
                phys = loc["physicalLocation"]
                uris.append(phys["artifactLocation"]["uri"])
                if phys["region"]["startLine"] < 1:
                    failures.append("codeflows: non-positive startLine in step")
                if not loc["message"]["text"]:
                    failures.append("codeflows: step without a message")
            # Root-first ordering across files: the chain starts at the hot
            # root and ends at the allocation.
            if not uris[0].endswith("hot_submit.cc"):
                failures.append(f"codeflows: chain starts at {uris[0]}, "
                                "expected hot_submit.cc")
            if not uris[-1].endswith("alloc_helper.cc"):
                failures.append(f"codeflows: chain ends at {uris[-1]}, "
                                "expected alloc_helper.cc")
        except (KeyError, IndexError) as err:
            failures.append(f"sarif: missing structure: {err!r}")


def main():
    failures = []
    check_fixtures(failures)
    check_interproc(failures)
    check_file_chains(failures)
    check_rule_sync(failures)
    check_suppressions(failures)
    check_partial(failures)
    check_sarif(failures)

    if failures:
        for failure in failures:
            print(f"FAIL {failure}")
        return 1
    print(f"ok: {len(EXPECTED)} bad fixtures tripped exactly their rules; "
          f"{len(INTERPROC_EXPECTED)} interproc findings with witness chains; "
          f"{len(CLEAN)} clean fixtures clean; suppressions and SARIF "
          "codeFlows behave")
    return 0


if __name__ == "__main__":
    sys.exit(main())
