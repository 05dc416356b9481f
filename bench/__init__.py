"""The end-to-end study benchmark (``python -m bench``); see README.md."""
