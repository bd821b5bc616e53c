"""The family parameter table: smallest instances vs expected formulas.

    python demos/05_parameter_table.py
"""

import ectf

result = ectf.run_table(max_size=1100)
print(ectf.table_to_text(result))
print("canonical JSON (byte-stable across runs):")
print(ectf.table_to_json(result))
