import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
#: Where a record says which command and interpreter wrote it.
PROVENANCE = ("generated_by", "python")


def without_provenance(record):
    """``record`` as its JSON file holds it, minus the provenance fields."""
    data = json.loads(json.dumps(record))
    return {key: value for key, value in data.items() if key not in PROVENANCE}


def committed_record(name):
    """The committed ``BENCH_<name>.json``, minus the provenance fields."""
    return without_provenance(json.loads((ROOT / f"BENCH_{name}.json").read_text()))
