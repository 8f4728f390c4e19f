#!/usr/bin/env python3
"""Compares two sets of BENCH_*.json reports table by table, row by row.

    python3 tools/bench_diff.py OLD_DIR NEW_DIR

Each BENCH_<name>.json holds top-level scalars and tables (arrays of row
objects); bench/bench_util.h writes them.  Rows are paired by position, and
their text cells must agree.  A cell is flagged when:

  * it is timed, that is it has `<cell>_min` and `<cell>_max` siblings
    (`ms`, `ms_min`, `ms_max`), and the two runs' [min, max] ranges do not
    overlap;
  * it is any other number and the two values differ.

Times a report keeps without a range (the `odci_calls` table's `total_us`
and `avg_us`, and ratios of times such as `join_speedup_4_workers`) cannot
be judged from one run, so they are skipped.
A file, table, row or cell present on one side only is flagged.  Prints
one line per flag and exits 1 if there is any.
"""

import glob
import json
import os
import sys


def unranged_time(name):
    return name.endswith("_us") or "speedup" in name


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def tables_of(report):
    """The report's tables, with its scalars as a one-row table "(top)"."""
    tables = {"(top)": [{k: v for k, v in report.items()
                         if not isinstance(v, list)}]}
    for key, value in report.items():
        if isinstance(value, list):
            tables[key] = value
    return tables


def label(row):
    """The row's text cells, which say what the row measures."""
    return " ".join("%s=%s" % (k, v) for k, v in row.items()
                    if isinstance(v, str)) or "-"


def diff_row(where, old, new, flags):
    for cell in sorted(set(old) | set(new)):
        if cell not in old or cell not in new:
            flags.append("%s: cell %s on one side only" % (where, cell))
            continue
        if cell.endswith(("_min", "_max")) and cell[:-4] in old:
            continue  # judged with its timed cell
        a, b = old[cell], new[cell]
        if cell + "_min" in old and cell + "_max" in old:
            lo_a, hi_a = old[cell + "_min"], old[cell + "_max"]
            lo_b, hi_b = new.get(cell + "_min", b), new.get(cell + "_max", b)
            if hi_a < lo_b or hi_b < lo_a:
                flags.append("%s: %s %s [%s, %s] -> %s [%s, %s]"
                             % (where, cell, a, lo_a, hi_a, b, lo_b, hi_b))
        elif is_number(a) and is_number(b):
            if a != b and not unranged_time(cell):
                flags.append("%s: %s %s -> %s" % (where, cell, a, b))
        elif a != b:
            flags.append("%s: %s %r -> %r" % (where, cell, a, b))


def diff_report(name, old, new, flags):
    old_tables, new_tables = tables_of(old), tables_of(new)
    for table in sorted(set(old_tables) | set(new_tables)):
        if table not in old_tables or table not in new_tables:
            flags.append("%s %s: table on one side only" % (name, table))
            continue
        old_rows, new_rows = old_tables[table], new_tables[table]
        if len(old_rows) != len(new_rows):
            flags.append("%s %s: %d rows -> %d rows"
                         % (name, table, len(old_rows), len(new_rows)))
        for i, (a, b) in enumerate(zip(old_rows, new_rows)):
            where = "%s %s[%d] %s" % (name, table, i, label(a))
            diff_row(where, a, b, flags)


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    old_dir, new_dir = argv[1:]
    names = sorted({os.path.basename(p)
                    for d in (old_dir, new_dir)
                    for p in glob.glob(os.path.join(d, "BENCH_*.json"))})
    flags = []
    for name in names:
        paths = [os.path.join(d, name) for d in (old_dir, new_dir)]
        if not all(os.path.exists(p) for p in paths):
            flags.append("%s: on one side only" % name)
            continue
        old, new = (json.load(open(p)) for p in paths)
        diff_report(name, old, new, flags)
    for line in flags:
        print("FLAG " + line)
    print("bench_diff: %d files, %d flags" % (len(names), len(flags)))
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
