"""End-to-end benchmark of the paper's pipeline (see NOTES.md)."""
