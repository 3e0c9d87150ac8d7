"""Repository tooling: the docs gate (check_docs) and reprolint."""
