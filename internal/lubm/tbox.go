// Package lubm provides the LUBM∃ benchmark environment of Section 6.1:
// a university-domain DL-LiteR TBox with the same shape as the paper's
// (128 concepts, 34 roles, 212 constraints — asserted by tests), a
// deterministic EUDG-style ABox generator, and the query workload
// (Q1–Q13, plus the star queries A3–A6 of Section 6.2).
package lubm

import (
	"repro/internal/dllite"
)

// conceptParents lists every non-root concept with its direct parent;
// the root is Entity. One concept-inclusion axiom per entry.
var conceptParents = [][2]string{
	// People (50)
	{"Person", "Entity"},
	{"Employee", "Person"},
	{"Faculty", "Employee"},
	{"Professor", "Faculty"},
	{"FullProfessor", "Professor"},
	{"AssociateProfessor", "Professor"},
	{"AssistantProfessor", "Professor"},
	{"VisitingProfessor", "Professor"},
	{"EmeritusProfessor", "Professor"},
	{"Lecturer", "Faculty"},
	{"SeniorLecturer", "Lecturer"},
	{"PostDoc", "Faculty"},
	{"ResearchScientist", "Employee"},
	{"Researcher", "Person"},
	{"Chair", "Professor"},
	{"Dean", "Employee"},
	{"Director", "Employee"},
	{"AdministrativeStaff", "Employee"},
	{"ClericalStaff", "AdministrativeStaff"},
	{"SystemsStaff", "AdministrativeStaff"},
	{"SupportStaff", "AdministrativeStaff"},
	{"Student", "Person"},
	{"UndergraduateStudent", "Student"},
	{"GraduateStudent", "Student"},
	{"PhDStudent", "GraduateStudent"},
	{"MastersStudent", "GraduateStudent"},
	{"TeachingAssistant", "GraduateStudent"},
	{"ResearchAssistant", "GraduateStudent"},
	{"Tutor", "Student"},
	{"Mentor", "Person"},
	{"Advisor", "Faculty"},
	{"Alumnus", "Person"},
	{"ExchangeStudent", "Student"},
	{"HonorsStudent", "UndergraduateStudent"},
	{"PartTimeStudent", "Student"},
	{"FullTimeStudent", "Student"},
	{"CommitteeMember", "Person"},
	{"ProgramChair", "CommitteeMember"},
	{"Reviewer", "Person"},
	{"Speaker", "Person"},
	{"KeynoteSpeaker", "Speaker"},
	{"Author", "Person"},
	{"PrincipalInvestigator", "Researcher"},
	{"CoInvestigator", "Researcher"},
	{"LabManager", "Employee"},
	{"GrantHolder", "Researcher"},
	{"Librarian", "Employee"},
	{"Registrar", "Employee"},
	{"Provost", "Employee"},
	{"Trustee", "Person"},
	// Organizations (18)
	{"Organization", "Entity"},
	{"University", "Organization"},
	{"College", "Organization"},
	{"Department", "Organization"},
	{"Institute", "Organization"},
	{"ResearchGroup", "Organization"},
	{"ResearchLab", "Organization"},
	{"Program", "Organization"},
	{"GraduateProgram", "Program"},
	{"UndergraduateProgram", "Program"},
	{"Library", "Organization"},
	{"Publisher", "Organization"},
	{"FundingAgency", "Organization"},
	{"Committee", "Organization"},
	{"AlumniAssociation", "Organization"},
	{"StudentUnion", "Organization"},
	{"Consortium", "Organization"},
	{"AcademicPress", "Publisher"},
	// Works (35)
	{"Work", "Entity"},
	{"Course", "Work"},
	{"GraduateCourse", "Course"},
	{"UndergraduateCourse", "Course"},
	{"Seminar", "Course"},
	{"Research", "Work"},
	{"Publication", "Work"},
	{"Article", "Publication"},
	{"JournalArticle", "Article"},
	{"ConferencePaper", "Article"},
	{"WorkshopPaper", "Article"},
	{"TechnicalReport", "Publication"},
	{"Book", "Publication"},
	{"BookChapter", "Publication"},
	{"Manual", "Publication"},
	{"Thesis", "Publication"},
	{"MastersThesis", "Thesis"},
	{"DoctoralThesis", "Thesis"},
	{"Software", "Publication"},
	{"Specification", "Publication"},
	{"UnofficialPublication", "Publication"},
	{"Survey", "Article"},
	{"Poster", "Publication"},
	{"Demo", "Publication"},
	{"Patent", "Work"},
	{"Dataset", "Work"},
	{"Benchmark", "Dataset"},
	{"Project", "Work"},
	{"ResearchProject", "Project"},
	{"LectureNotes", "Work"},
	{"Exam", "Work"},
	{"Assignment", "Work"},
	{"Curriculum", "Work"},
	{"Grant", "Work"},
	{"Proposal", "Work"},
	// Misc (24)
	{"Schedule", "Entity"},
	{"Semester", "Schedule"},
	{"AcademicTerm", "Schedule"},
	{"Degree", "Entity"},
	{"BachelorsDegree", "Degree"},
	{"MastersDegree", "Degree"},
	{"DoctoralDegree", "Degree"},
	{"Award", "Entity"},
	{"Fellowship", "Award"},
	{"Scholarship", "Award"},
	{"Event", "Entity"},
	{"Meeting", "Event"},
	{"Colloquium", "Event"},
	{"Talk", "Event"},
	{"Conference", "Event"},
	{"Workshop", "Event"},
	{"Place", "Entity"},
	{"Building", "Place"},
	{"Room", "Place"},
	{"Office", "Room"},
	{"Classroom", "Room"},
	{"Auditorium", "Room"},
	{"Campus", "Place"},
	{"ResearchArea", "Entity"},
}

// roleDomains and roleRanges define the ∃R ⊑ C and ∃R⁻ ⊑ C axioms.
// Together they contribute 60 constraints; roles absent from a map
// inherit typing through the role hierarchy instead.
var roleDomains = map[string]string{
	"worksFor":            "Employee",
	"memberOf":            "Person",
	"headOf":              "Person",
	"affiliatedWith":      "Person",
	"subOrganizationOf":   "Organization",
	"teacherOf":           "Faculty",
	"takesCourse":         "Student",
	"teachingAssistantOf": "TeachingAssistant",
	"advisedBy":           "Student",
	"authorOf":            "Author",
	"supervisedBy":        "Person",
	"worksWith":           "Person",
	"collaboratesWith":    "Researcher",
	"degreeFrom":          "Person",
	"researchInterest":    "Person",
	"investigates":        "ResearchGroup",
	"fundedBy":            "Project",
	"enrolledIn":          "Person",
	"offeredBy":           "Course",
	"attends":             "Entity",
	"organizes":           "Person",
	"reviews":             "Reviewer",
	"cites":               "Publication",
	"partOf":              "Work",
	"prerequisiteOf":      "Course",
	"locatedIn":           "Organization",
	"scheduledIn":         "Course",
	"leads":               "Person",
	"contributesTo":       "Person",
	"awardedTo":           "Award",
}

var roleRanges = map[string]string{
	"worksFor":          "Organization",
	"memberOf":          "Organization",
	"headOf":            "Organization",
	"affiliatedWith":    "Organization",
	"subOrganizationOf": "Organization",
	// The ranges of the teaching roles sit at the top of the Work
	// hierarchy: deep targets here would close dependency chains and
	// collapse every workload query's root cover into one fragment
	// (cf. Section 5.2's observation that dependency-rich TBoxes yield
	// few, large Croot fragments — we keep enough fragmentation for the
	// cover spaces of Table 6 to be non-trivial).
	"teacherOf":           "Work",
	"takesCourse":         "Work",
	"teachingAssistantOf": "Work",
	"advisedBy":           "Professor",
	"authorOf":            "Publication",
	"supervisedBy":        "Person",
	"worksWith":           "Person",
	"collaboratesWith":    "Researcher",
	"degreeFrom":          "University",
	"researchInterest":    "ResearchArea",
	"investigates":        "ResearchArea",
	"fundedBy":            "FundingAgency",
	"enrolledIn":          "Program",
	"offeredBy":           "Organization",
	"attends":             "Event",
	"organizes":           "Event",
	"reviews":             "Publication",
	"cites":               "Publication",
	"partOf":              "Work",
	"prerequisiteOf":      "Course",
	"locatedIn":           "Place",
	"scheduledIn":         "Room",
	"leads":               "ResearchGroup",
	"contributesTo":       "Work",
	"awardedTo":           "Person",
}

// allRoles lists the 34 role names; four of them (the degree-flavored
// subroles and hasAlumnus) are typed only through the role hierarchy.
var allRoles = []string{
	"worksFor", "memberOf", "headOf", "affiliatedWith", "subOrganizationOf",
	"teacherOf", "takesCourse", "teachingAssistantOf", "advisedBy", "authorOf",
	"supervisedBy", "worksWith", "collaboratesWith", "degreeFrom",
	"mastersDegreeFrom", "doctoralDegreeFrom", "undergraduateDegreeFrom",
	"hasAlumnus", "researchInterest", "investigates", "fundedBy", "enrolledIn",
	"offeredBy", "attends", "organizes", "reviews", "cites", "partOf",
	"prerequisiteOf", "locatedIn", "scheduledIn", "leads", "contributesTo",
	"awardedTo",
}

// roleHierarchy lists role inclusions (lhs role, rhs role, rhsInverse).
var roleHierarchy = []struct {
	L, R string
	RInv bool
}{
	{"mastersDegreeFrom", "degreeFrom", false},
	{"doctoralDegreeFrom", "degreeFrom", false},
	{"undergraduateDegreeFrom", "degreeFrom", false},
	{"hasAlumnus", "degreeFrom", true}, // hasAlumnus ⊑ degreeFrom⁻
	{"supervisedBy", "worksWith", false},
	{"collaboratesWith", "worksWith", false},
	{"worksWith", "worksWith", true}, // symmetry
	{"headOf", "worksFor", false},
	{"worksFor", "memberOf", false},
	{"advisedBy", "supervisedBy", false},
	{"teachingAssistantOf", "contributesTo", false},
}

// existentials lists C ⊑ ∃R axioms (inv selects ∃R⁻).
var existentials = []struct {
	C, R string
	Inv  bool
}{
	{"Professor", "teacherOf", false},
	{"Student", "takesCourse", false},
	{"PhDStudent", "advisedBy", false},
	{"Publication", "authorOf", true}, // every publication has an author
	{"Department", "subOrganizationOf", false},
	{"Course", "offeredBy", false},
	{"GraduateStudent", "degreeFrom", false},
	{"Employee", "worksFor", false},
	{"ResearchGroup", "leads", true}, // every group is led by someone
	{"ResearchProject", "fundedBy", false},
}

// disjointness lists the negative constraints.
var disjointness = [][2]string{
	{"Person", "Organization"},
	{"Person", "Work"},
	{"Organization", "Work"},
	{"UndergraduateStudent", "GraduateStudent"},
}

// TBox builds the LUBM∃ TBox. The result is freshly allocated; callers
// may modify it without affecting others.
func TBox() *dllite.TBox {
	var axioms []dllite.Axiom
	for _, e := range conceptParents {
		axioms = append(axioms, dllite.CIncl(dllite.C(e[0]), dllite.C(e[1])))
	}
	for _, role := range allRoles {
		if d, ok := roleDomains[role]; ok {
			axioms = append(axioms, dllite.CIncl(dllite.Some(dllite.R(role)), dllite.C(d)))
		}
		if r, ok := roleRanges[role]; ok {
			axioms = append(axioms, dllite.CIncl(dllite.Some(dllite.RInv(role)), dllite.C(r)))
		}
	}
	for _, rh := range roleHierarchy {
		rr := dllite.R(rh.R)
		if rh.RInv {
			rr = rr.Inverse()
		}
		axioms = append(axioms, dllite.RIncl(dllite.R(rh.L), rr))
	}
	for _, ex := range existentials {
		r := dllite.R(ex.R)
		if ex.Inv {
			r = r.Inverse()
		}
		axioms = append(axioms, dllite.CIncl(dllite.C(ex.C), dllite.Some(r)))
	}
	for _, d := range disjointness {
		axioms = append(axioms, dllite.CDisj(dllite.C(d[0]), dllite.C(d[1])))
	}
	return dllite.MustTBox(axioms)
}
